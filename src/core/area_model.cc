#include "core/area_model.hh"

#include <iomanip>
#include <sstream>

#include "common/log.hh"

namespace siwi::core {

using pipeline::PipelineMode;

AreaModel::AreaModel(const InventoryParams &inv,
                     const AreaCalibration &cal)
    : inv_(inv), cal_(cal)
{
}

AreaReport
AreaModel::report(PipelineMode mode) const
{
    auto inv = hardwareInventory(mode, inv_);
    AreaReport rep;
    rep.mode = mode;

    auto bitsOf = [&](const std::string &name) -> u64 {
        for (const StorageItem &it : inv) {
            if (it.component == name)
                return it.bits;
        }
        panic("inventory item missing: ", name);
    };
    auto noteOf = [&](const std::string &name) -> std::string {
        for (const StorageItem &it : inv) {
            if (it.component == name)
                return it.note;
        }
        return "";
    };

    const bool wide = mode != PipelineMode::Baseline;
    const bool sbi = mode == PipelineMode::SBI ||
                     mode == PipelineMode::SBISWI;
    const bool swi = mode == PipelineMode::SWI ||
                     mode == PipelineMode::SBISWI;

    // RF: segmentation cost only for the wide dual-address designs.
    rep.items.push_back(
        {"RF", wide ? cal_.rf_segmentation_kum2 : 0.0});

    // Scoreboard.
    double sb_density =
        sbi ? cal_.sb_matrix_per_bit : cal_.sb_cam_per_bit;
    rep.items.push_back(
        {"Scoreboard", bitsOf("Scoreboard") * sb_density / 1000.0});

    // Scheduler: associative lookup logic for SWI designs.
    rep.items.push_back(
        {"Scheduler", swi ? cal_.scheduler_lookup_kum2 : 0.0});

    // Warp pool / HCT.
    double hct_density = cal_.hct_pool_per_bit;
    if (sbi)
        hct_density = cal_.hct_sorted_per_bit;
    else if (swi)
        hct_density = cal_.hct_single_per_bit;
    rep.items.push_back(
        {"HCT", bitsOf("Warp pool/HCT") * hct_density / 1000.0});

    // Stack (baseline) vs CCT (heap designs).
    double cct_density =
        wide ? cal_.cct_per_bit : cal_.stack_per_bit;
    rep.items.push_back(
        {"CCT", bitsOf("Stack/CCT") * cct_density / 1000.0});

    // Instruction buffer.
    double ib_density = noteOf("Insn. buffer") == "dual-ported"
                            ? cal_.ibuf_dual_per_bit
                            : cal_.ibuf_per_bit;
    rep.items.push_back(
        {"Insn. buffer",
         bitsOf("Insn. buffer") * ib_density / 1000.0});

    for (const AreaItem &it : rep.items)
        rep.total_kum2 += it.area_kum2;

    // Overhead vs the baseline configuration.
    if (mode != PipelineMode::Baseline) {
        AreaReport base = report(PipelineMode::Baseline);
        rep.overhead_kum2 = rep.total_kum2 - base.total_kum2;
        rep.overhead_percent =
            100.0 * rep.overhead_kum2 / sm_area_kum2;
    }
    return rep;
}

std::string
AreaModel::formatTable() const
{
    const PipelineMode modes[] = {
        PipelineMode::Baseline, PipelineMode::SBI, PipelineMode::SWI,
        PipelineMode::SBISWI};
    std::vector<AreaReport> reps;
    for (PipelineMode m : modes)
        reps.push_back(report(m));

    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    os << std::left << std::setw(16) << "Area (x1000um2)";
    for (PipelineMode m : modes)
        os << std::right << std::setw(12) << pipelineModeName(m);
    os << "\n";
    for (size_t row = 0; row < reps[0].items.size(); ++row) {
        os << std::left << std::setw(16)
           << reps[0].items[row].component;
        for (const AreaReport &r : reps) {
            double a = r.items[row].area_kum2;
            os << std::right << std::setw(12);
            if (a == 0.0)
                os << "-";
            else
                os << a;
        }
        os << "\n";
    }
    os << std::left << std::setw(16) << "Total";
    for (const AreaReport &r : reps)
        os << std::right << std::setw(12) << r.total_kum2;
    os << "\n" << std::left << std::setw(16) << "Overhead";
    for (const AreaReport &r : reps) {
        os << std::right << std::setw(12);
        if (r.mode == PipelineMode::Baseline)
            os << "-";
        else
            os << r.overhead_kum2;
    }
    os << "\n" << std::left << std::setw(16) << "% of 15.6mm2 SM";
    for (const AreaReport &r : reps) {
        os << std::right << std::setw(12);
        if (r.mode == PipelineMode::Baseline)
            os << "-";
        else
            os << r.overhead_percent;
    }
    os << "\n";
    return os.str();
}

} // namespace siwi::core
