#include "core/hardware_inventory.hh"

#include <iomanip>
#include <sstream>

namespace siwi::core {

using pipeline::PipelineMode;

namespace {

std::string
geom(unsigned banks, unsigned rows, unsigned bits)
{
    std::ostringstream os;
    if (banks > 1)
        os << banks << "x ";
    os << rows << "x " << bits << "-bit";
    return os.str();
}

} // namespace

std::vector<StorageItem>
hardwareInventory(PipelineMode mode, const InventoryParams &p)
{
    const unsigned base_warps = p.threads / p.baseline_width; // 48
    const unsigned pool_warps = base_warps / 2;               // 24
    const unsigned wide_warps = p.threads / p.wide_width;     // 24

    // Derived entry widths (see docs/DESIGN.md):
    //  - baseline scoreboard entry: 8 bits (6-bit reg id + flags,
    //    after Coon et al.)
    //  - SBI scoreboard entry: 24 bits (reg id + 3x3 dependency
    //    matrix + slot + flags); SBI+SWI needs two issue banks
    //  - context: 32-bit PC + warp-width mask; heap adds a CCT
    //    pointer (7 bits for 128 entries) + valid bits
    const unsigned sb_base_bits = p.scoreboard_entries * 8;  // 48
    const unsigned sb_sbi_bits = p.scoreboard_entries * 24;  // 144
    const unsigned ctx_bits = 32 + p.wide_width;             // 96
    const unsigned hct_bits = 2 * ctx_bits + 7 + 2;          // 201
    const unsigned pool_entry_bits = 32 + p.baseline_width;  // 64
    const unsigned swi_hct_bits = ctx_bits + 7 + 1;          // 104
    const unsigned cct_entry_bits = ctx_bits + 7 + 1;        // 104
    const unsigned cct_total_entries = 128;
    const unsigned stack_block_bits =
        p.stack_block_entries * 64;                          // 256
    const unsigned ibuf_entry_bits = 64;

    std::vector<StorageItem> items;
    auto add = [&](const std::string &name, unsigned banks,
                   unsigned rows, unsigned bits,
                   const std::string &note = "") {
        items.push_back({name, geom(banks, rows, bits),
                         u64(banks) * rows * bits, note});
    };

    switch (mode) {
      case PipelineMode::Baseline:
      case PipelineMode::Warp64:
        items.push_back({"RF", "single-decoder", 0, ""});
        add("Scoreboard", 2, pool_warps, sb_base_bits);
        items.push_back({"Scheduler", "symmetric", 0, ""});
        add("Warp pool/HCT", 2, pool_warps, pool_entry_bits);
        add("Stack/CCT", 1, base_warps * p.stack_blocks,
            stack_block_bits);
        add("Insn. buffer", 1, base_warps, ibuf_entry_bits);
        break;

      case PipelineMode::SBI:
        items.push_back({"RF", "segmented", 0, ""});
        add("Scoreboard", 1, wide_warps, sb_sbi_bits);
        items.push_back({"Scheduler", "warp-split", 0, ""});
        add("Warp pool/HCT", 1, wide_warps, hct_bits);
        add("Stack/CCT", 1, cct_total_entries, cct_entry_bits);
        add("Insn. buffer", 1, 2 * wide_warps, ibuf_entry_bits);
        break;

      case PipelineMode::SWI:
        items.push_back({"RF", "segmented", 0, ""});
        add("Scoreboard", 2, pool_warps, sb_base_bits);
        items.push_back({"Scheduler", "associative lookup", 0, ""});
        add("Warp pool/HCT", 1, wide_warps, swi_hct_bits);
        add("Stack/CCT", 1, cct_total_entries, cct_entry_bits);
        add("Insn. buffer", 1, wide_warps, ibuf_entry_bits,
            "dual-ported");
        break;

      case PipelineMode::SBISWI:
        items.push_back({"RF", "segmented", 0, ""});
        add("Scoreboard", 1, wide_warps, 2 * sb_sbi_bits);
        items.push_back({"Scheduler", "associative lookup", 0, ""});
        add("Warp pool/HCT", 1, wide_warps, hct_bits, "banked");
        add("Stack/CCT", 1, cct_total_entries, cct_entry_bits);
        add("Insn. buffer", 1, 2 * wide_warps, ibuf_entry_bits,
            "dual-ported");
        break;
    }
    return items;
}

u64
inventoryTotalBits(PipelineMode mode, const InventoryParams &p)
{
    u64 total = 0;
    for (const StorageItem &it : hardwareInventory(mode, p))
        total += it.bits;
    return total;
}

std::string
formatInventoryTable(const InventoryParams &p)
{
    const PipelineMode modes[] = {
        PipelineMode::Baseline, PipelineMode::SBI, PipelineMode::SWI,
        PipelineMode::SBISWI};

    std::vector<std::vector<StorageItem>> cols;
    for (PipelineMode m : modes)
        cols.push_back(hardwareInventory(m, p));

    std::ostringstream os;
    os << std::left << std::setw(16) << "Component";
    for (PipelineMode m : modes)
        os << std::setw(22) << pipelineModeName(m);
    os << "\n";
    for (size_t row = 0; row < cols[0].size(); ++row) {
        os << std::setw(16) << cols[0][row].component;
        for (size_t c = 0; c < 4; ++c) {
            std::string cell = cols[c][row].geometry;
            if (!cols[c][row].note.empty())
                cell += ", " + cols[c][row].note;
            os << std::setw(22) << cell;
        }
        os << "\n";
    }
    os << std::setw(16) << "Total bits";
    for (size_t c = 0; c < 4; ++c) {
        u64 bits = 0;
        for (const StorageItem &it : cols[c])
            bits += it.bits;
        os << std::setw(22) << bits;
    }
    os << "\n";
    return os.str();
}

} // namespace siwi::core
