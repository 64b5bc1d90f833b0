/**
 * @file
 * Machine-readable results of an experiment sweep.
 *
 * Results is the one container every consumer shares: the bench
 * table printers, the siwi-run CLI, the JSON serializer and
 * the CI baseline gate. Every struct here has one serializer, a
 * writeJson() that streams into a JsonWriter without building a
 * Json tree; the tree is for reading. The JSON layout is versioned
 * via core::stats_schema_version (see core/stats_io.hh);
 * bench/README.md documents the schema.
 */

#ifndef SIWI_RUNNER_RESULTS_HH
#define SIWI_RUNNER_RESULTS_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "core/gpu.hh"
#include "core/stats.hh"
#include "workloads/workload.hh"

namespace siwi::runner {

/** Outcome of one (sweep, machine, workload) cell. */
struct CellResult
{
    std::string sweep;
    /**
     * Machine label; includes "/<policy>" for non-default
     * scheduling policies and "@<n>sm" for multi-SM cells.
     */
    std::string machine;
    std::string workload;
    std::string size;      //!< "tiny" | "full" | "chip"
    unsigned num_sms = 1;  //!< chip SM count of this cell
    std::string policy;    //!< scheduling policy ("oldest", ...)
    bool excluded_from_means = false;
    bool verified = false;
    /**
     * The run hit the cycle cap: stats cover only the simulated
     * prefix and ipc is not a result. Tables render "T/O", the
     * gate treats it like a verification failure.
     */
    bool timed_out = false;
    double ipc = 0.0;
    core::SimStats stats;
    std::string verify_msg; //!< diagnostic when !verified

    bool operator==(const CellResult &) const = default;
};

/**
 * The fully-resolved configuration behind one machine column of
 * one sweep. Embedded into the serialized results ("machines"),
 * so an artifact carries everything needed to re-run it; cells
 * reference records by their decorated machine label.
 */
struct MachineRecord
{
    std::string sweep;
    std::string machine; //!< decorated label, matches cell labels
    core::GpuConfig config;

    bool operator==(const MachineRecord &rhs) const
    {
        return sweep == rhs.sweep && machine == rhs.machine &&
               config == rhs.config;
    }
};

/**
 * Write one machine record as an entry of the results "machines"
 * array — shared by the results document and siwi-run
 * --dump-config so the two cannot drift.
 */
void writeJson(JsonWriter &w, const MachineRecord &m);

/**
 * Write one cell exactly as it appears in the results "cells"
 * array — shared by the results document and the serve-layer
 * result cache (one blob per cell), so a cell that travels through
 * the cache re-serializes byte-identically to a locally computed
 * one.
 */
void writeJson(JsonWriter &w, const CellResult &c);

/** The tree of @p c's text: for callers that need a Json value. */
Json cellToJson(const CellResult &c);

/**
 * Rebuild a cell from writeJson() output. Every member but
 * verify_msg is required: labels are strings, flags bools, num_sms
 * a positive integer that fits unsigned, ipc a number, and the
 * stats block is read strictly (core::statsFromJson). @return
 * false and set @p err, naming the cell and the key, on malformed
 * input.
 */
bool cellFromJson(const Json &jc, CellResult *out,
                  std::string *err);

/** All cells of one runner invocation, in canonical sweep order. */
class Results
{
  public:
    std::string suite; //!< label of what was run, e.g. "fast"
    /** Resolved config per (sweep, machine label), in canonical
     *  order (sweep-major, then SM count, policy, machine). */
    std::vector<MachineRecord> machines;
    std::vector<CellResult> cells;

    /** Machine record by key; nullptr when absent. */
    const MachineRecord *findMachine(
        const std::string &sweep,
        const std::string &machine) const;

    /** Cell lookup by key; nullptr when absent. */
    const CellResult *find(const std::string &sweep,
                           const std::string &machine,
                           const std::string &workload) const;

    /** Distinct sweep names, in first-appearance order. */
    std::vector<std::string> sweepNames() const;

    /** Cells of one sweep, in stored order. */
    std::vector<const CellResult *> sweepCells(
        const std::string &sweep) const;

    /** Number of cells that failed functional verification. */
    size_t verificationFailures() const;

    /** Number of cells truncated at the cycle cap. */
    size_t timeouts() const;

    /** Pretty-printed JSON document with trailing newline. */
    std::string toJsonText() const;

    /**
     * Parse a results document. Fails on a schema_version that is
     * not the supported integer, a suite that is not a string, and
     * any machine record or cell it cannot read strictly.
     * @return false and set @p err on malformed input.
     */
    static bool fromJson(const Json &j, Results *out,
                         std::string *err);

    /** Read and parse a JSON results file. */
    static bool load(const std::string &path, Results *out,
                     std::string *err);

    /** Write toJsonText() to @p path. */
    bool save(const std::string &path, std::string *err) const;

    bool operator==(const Results &) const = default;
};

/** Write the whole results document (Results::toJsonText()). */
void writeJson(JsonWriter &w, const Results &r);

/** "tiny" / "full" / "chip" label of a SizeClass. */
const char *sizeClassName(workloads::SizeClass sc);

} // namespace siwi::runner

#endif // SIWI_RUNNER_RESULTS_HH
