/**
 * @file
 * The declarative SimSpec layer: machines, chips and whole
 * experiments as data.
 *
 * Three file-level concepts, all built on the config field tables
 * (pipeline/config_io.hh, core/config_io.hh):
 *
 *  - A *machine file* describes one named machine as a base
 *    machine plus a "set" block of field overrides:
 *
 *        {"name": "SBI+SWI-cct8-xor",
 *         "base": "sbi+swi",
 *         "set": {"cct_capacity": 8, "lane_shuffle": "xor"}}
 *
 *  - The *machine registry* resolves machine names: the five
 *    paper machines are built-in rows, user machines loaded from
 *    machine files (or defined inline in a spec) join them at
 *    runtime. Lookup is case-insensitive.
 *
 *  - A *spec file* describes an entire experiment — a list of
 *    sweeps, each machines x workloads x size x sms x policies
 *    with optional per-sweep overrides — and expands to SweepSpec
 *    grids. The checked-in bench/specs/ files are the only
 *    definition of the paper's experiments, and
 *    `siwi-run --spec` is the only way to run one (see
 *    docs/CONFIG.md for the schema and worked examples).
 *
 * Parsing is strict throughout: unknown keys, unknown machine /
 * workload / policy names, bad enum values and configurations
 * that violate SMConfig invariants are errors that name the
 * offending entity, never silent skips — that is what makes
 * `siwi-run --spec f.json --dry-run` a meaningful CI gate.
 */

#ifndef SIWI_RUNNER_SPEC_HH
#define SIWI_RUNNER_SPEC_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "runner/sweep.hh"

namespace siwi::runner {

/**
 * Machine-name resolution: the five paper machines (built-in,
 * one per pipeline::PipelineMode) plus user machines registered
 * at runtime. Names are matched case-insensitively; user machines
 * cannot shadow an existing name.
 */
class MachineRegistry
{
  public:
    /** Seeds the built-in paper machines. */
    MachineRegistry();

    /**
     * Register a user machine. Fails (naming the clash) when the
     * name — case-insensitively — is already taken.
     */
    bool add(MachineSpec m, std::string *err);

    /** Lookup by name (case-insensitive); nullptr when absent. */
    const MachineSpec *find(std::string_view name) const;

    /** Every registered machine, built-ins first. */
    const std::vector<MachineSpec> &machines() const
    {
        return machines_;
    }

  private:
    std::vector<MachineSpec> machines_;
};

/**
 * Build a machine from a JSON machine object:
 *   {"name"?: str, "base": str, "set"?: {field: value, ...}}
 * @p base_dir resolves a {"file": path} reference instead (the
 * referenced file holds a machine object; a relative path is
 * relative to @p base_dir). When "name" is absent a file's stem
 * names the machine; an inline object must carry one.
 * @return false and set @p err on any problem.
 */
bool machineFromJson(const Json &j, const std::string &base_dir,
                     const MachineRegistry &reg, MachineSpec *out,
                     std::string *err);

/**
 * Load one machine file. The machine is named by its "name"
 * member, or the file stem when absent.
 */
bool loadMachineFile(const std::string &path,
                     const MachineRegistry &reg, MachineSpec *out,
                     std::string *err);

/**
 * Expand a parsed spec document into sweeps. Top-level schema:
 *
 *   {"name": str,                 — suite label of the run
 *    "machines"?: [machine...],   — registered for this spec
 *    "sweeps": [
 *      {"name": str,
 *       "machines": [str | machine-object | {"file": path}, ...],
 *       "workloads": [name | "regular" | "irregular" | "all",...],
 *       "size"?: "tiny" | "full" | "chip"      (default "full")
 *       "sms"?: [int, ...]                     (default [1])
 *       "policies"?: [policy-name, ...]        (default
 *                                               ["oldest"])
 *       "set"?: {field: value, ...}} — applied to every machine
 *      , ...]}
 *
 * @p reg is extended by the spec's own "machines" section, so
 * its machines are visible to every sweep and to the caller.
 * @return false and set @p err on any problem.
 */
bool sweepsFromSpecJson(const Json &j, const std::string &base_dir,
                        MachineRegistry *reg,
                        std::vector<SweepSpec> *out,
                        std::string *label, std::string *err);

/** Read, parse and expand a spec file. */
bool loadSpecFile(const std::string &path, MachineRegistry *reg,
                  std::vector<SweepSpec> *out, std::string *label,
                  std::string *err);

} // namespace siwi::runner

#endif // SIWI_RUNNER_SPEC_HH
