/**
 * @file
 * Declarative experiment sweeps: machines x workloads x config
 * overrides.
 *
 * A SweepSpec names the grid one paper figure measures; the
 * ExperimentRunner expands it into independent cells and executes
 * them concurrently. Cells are pure functions of their spec (every
 * cell builds its own GPU and generates its own inputs), which is
 * what makes both the parallelism and the bit-identical JSON
 * output possible.
 */

#ifndef SIWI_RUNNER_SWEEP_HH
#define SIWI_RUNNER_SWEEP_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "core/gpu.hh"
#include "frontend/sched_policy.hh"
#include "pipeline/config.hh"
#include "workloads/workload.hh"

namespace siwi::runner {

/** One column of a sweep: a named, fully-resolved configuration. */
struct MachineSpec
{
    std::string name;
    pipeline::SMConfig config;
    /**
     * Chip-level "key=value" overrides (GpuConfig field table:
     * l2_slices, dram_channels, noc_*, ...), validated when
     * recorded and applied on top of core::GpuConfig::make() when
     * each cell's chip is resolved — the SM-level config cannot
     * express them, and make()'s derived defaults must see the SM
     * config first. Part of the machine identity (dedupe compares
     * them alongside the SM config).
     */
    std::vector<std::string> chip_sets = {};
};

/**
 * Route one "key=value" override onto a machine: SM-level keys
 * mutate the SMConfig immediately; chip-level keys (the GpuConfig
 * field table) are validated and recorded in chip_sets for
 * deferred application. Dots in the key are accepted as
 * underscores ("l2.slices=4" == "l2_slices=4"). This is the
 * single override path shared by machine files, spec files and
 * the CLI --set flag. num_sms is rejected: the SM count is the
 * sweep's sms axis, and the backend choice (a private DRAM channel
 * for one SM, the banked L2 for more) is derived from it. A chip
 * override pins the resolved chip's value, so an overridden
 * dram_bytes_per_cycle_x10 is exempt from GpuConfig::make()'s
 * SM-count bandwidth scaling.
 * @return false and set @p err on a malformed entry.
 */
bool machineApplyKeyValue(MachineSpec *m, std::string_view kv,
                          std::string *err);

/**
 * Apply a JSON "set" object (machine-file / spec-file overrides)
 * onto a machine through the same chip/SM routing as
 * machineApplyKeyValue: each member becomes one "key=value"
 * mutation. Values must be scalars matching the field's type.
 * @return false and set @p err on the first bad member.
 */
bool machineApplyJson(MachineSpec *m, const Json &set,
                      std::string *err);

/** The full grid one figure (or figure panel) measures. */
struct SweepSpec
{
    std::string name; //!< e.g. "fig7_regular"
    std::vector<MachineSpec> machines;
    std::vector<const workloads::Workload *> wls;
    workloads::SizeClass size = workloads::SizeClass::Full;
    /**
     * SM-count axis: every machine x workload cell runs once per
     * entry (core::GpuConfig::make chips; 1 = the paper's
     * single-SM setup). Cells with more than one SM carry an
     * "@<n>sm" suffix on their machine label.
     */
    std::vector<unsigned> sms = {1};
    /**
     * Scheduling-policy axis: every cell runs once per entry,
     * with SMConfig::sched_policy overridden (the kind of the
     * front-end's SchedPolicy). Non-default policies carry a
     * "/<policy>" suffix on their machine label; the default
     * oldest-first keeps the plain label, so existing baselines
     * stay keyed the same.
     */
    std::vector<frontend::SchedPolicyKind> policies = {
        frontend::SchedPolicyKind::OldestFirst};

    size_t cellCount() const
    {
        return machines.size() * wls.size() * sms.size() *
               policies.size();
    }

    /**
     * Drop machines whose name is not in @p keep (empty = all).
     * Names match case-insensitively, as spec files name machines.
     */
    void filterMachines(const std::vector<std::string> &keep);
    /**
     * Drop workloads whose name is not in @p keep (empty = all).
     * Names match exactly, as workloads::findWorkload does.
     */
    void filterWorkloads(const std::vector<std::string> &keep);
    /**
     * Drop machines whose config equals an earlier column (field
     * table operator==), warning for each duplicate: two named
     * machines that resolve to the same configuration would run
     * (and cost) identical cells. runSweeps() applies this to its
     * own copy of every sweep.
     */
    void dedupeMachines();

    /** SM count of the @p sms_idx axis entry (1 when empty). */
    unsigned smsAt(size_t sms_idx) const
    {
        return sms.empty() ? 1u : sms[sms_idx];
    }
    /** Policy of the @p policy_idx axis entry. */
    frontend::SchedPolicyKind policyAt(size_t policy_idx) const
    {
        return policies.empty()
                   ? frontend::SchedPolicyKind::OldestFirst
                   : policies[policy_idx];
    }
};

/**
 * The scheduling policy one cell actually runs: the sweep's
 * policy-axis entry, except that the default oldest-first entry
 * respects a policy the machine itself configured (a machine
 * file's or --set's "sched_policy" field) — an explicit
 * non-default axis entry overrides it.
 */
frontend::SchedPolicyKind effectivePolicy(const SweepSpec &sweep,
                                          size_t machine,
                                          size_t policy_idx);

/**
 * Decorated machine label of a cell: "/<policy>" for non-default
 * scheduling policies, "@<n>sm" for multi-SM cells. Baselines and
 * tables key on this label, so it is part of the cell identity.
 */
std::string cellMachineLabel(const std::string &machine,
                             frontend::SchedPolicyKind policy,
                             unsigned num_sms);

/**
 * The fully-resolved chip configuration of one cell — exactly
 * what the simulator will be built from (policy override applied,
 * chip derived via core::GpuConfig::make, then the machine's
 * chip_sets applied on top). This block is embedded into results
 * artifacts and printed by siwi-run --dump-config.
 */
core::GpuConfig resolvedCellConfig(const SweepSpec &sweep,
                                   size_t machine, size_t sms_idx,
                                   size_t policy_idx);

/**
 * The one validity check of a sweep, in three steps:
 *  - every machine's SM config satisfies its invariants;
 *  - the axes expand to no duplicate cells: no repeated sms
 *    entry, and no machine runs the same *effective* policy
 *    twice (the default oldest entry resolves to the machine's
 *    own sched_policy — see effectivePolicy());
 *  - every chip configuration the sweep resolves to (machines x
 *    sms axis) satisfies the chip invariants. chip_sets can
 *    request topologies (e.g. more L2 slices than sets) that only
 *    materialize after GpuConfig::make().
 * The spec loader runs it on every sweep it builds, and siwi-run
 * again after --set; both report it as a usage error.
 * @return the first diagnostic, naming the sweep and the
 *         offending machine, entry or SM count; empty when sound.
 */
std::string checkSweep(const SweepSpec &sweep);

/**
 * Narrow @p sweeps to the machines in @p machines and the
 * workloads in @p workloads (siwi-run's --machine and --workload;
 * an empty list keeps all), then drop sweeps left without cells.
 * Names match as SweepSpec::filterMachines() and
 * filterWorkloads() match them.
 * @return a diagnostic naming the first value that matches
 *         nothing in any sweep, or saying that no cells remain;
 *         empty on success.
 */
std::string narrowSweeps(std::vector<SweepSpec> *sweeps,
                         const std::vector<std::string> &machines,
                         const std::vector<std::string> &workloads);

/**
 * One executable cell of a sweep: indices into the owning spec.
 * Expansion order (sweep-major, then workload, then SM count,
 * then policy, then machine) is the canonical result order
 * regardless of execution schedule (runSweeps() starts cells in
 * dispatchOrder()).
 */
struct CellSpec
{
    size_t sweep = 0;
    size_t machine = 0;
    size_t wl = 0;
    size_t sms = 0;    //!< index into SweepSpec::sms
    size_t policy = 0; //!< index into SweepSpec::policies
};

/** Flatten @p sweeps into cells in canonical order. */
std::vector<CellSpec> expandCells(
    const std::vector<SweepSpec> &sweeps);

} // namespace siwi::runner

#endif // SIWI_RUNNER_SWEEP_HH
