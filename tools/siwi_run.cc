/**
 * @file
 * siwi-run: parallel experiment-runner CLI.
 *
 * Runs the experiment a spec file describes (bench/specs/) across
 * a thread pool, prints the paper-style tables, writes the
 * machine-readable JSON results document, and implements the
 * tolerance-0 regression gate by comparing two results documents.
 * The spec file is the experiment: after loading it, siwi-run only
 * narrows it (--machine, --workload) and overrides config (--set).
 *
 * Exit codes: 0 success, 1 verification failure, 2 regression
 * gate failed, 3 usage error, 4 I/O error.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/config_io.hh"
#include "pipeline/config_io.hh"
#include "runner/runner.hh"
#include "serve/cached_run.hh"

using namespace siwi;
using namespace siwi::runner;

namespace {

constexpr int exit_ok = 0;
constexpr int exit_verify = 1;
constexpr int exit_regression = 2;
constexpr int exit_usage = 3;
constexpr int exit_io = 4;

void
usage(FILE *out)
{
    std::fprintf(out,
"usage: siwi-run --spec PATH [options]\n"
"       siwi-run --compare BASE CAND | --check PATH |\n"
"                --list-suites | --dump-schema\n"
"\n"
"run selection:\n"
"  --spec PATH        run the experiment described by a JSON\n"
"                     spec file (bench/specs/ holds one per\n"
"                     paper figure; see docs/CONFIG.md)\n"
"  --machine NAME     keep only this machine (repeatable; any\n"
"                     case, as in spec files)\n"
"  --workload NAME    keep only this workload (repeatable)\n"
"\n"
"configuration:\n"
"  --set KEY=VALUE    override one config field on every\n"
"                     machine of every selected sweep\n"
"                     (repeatable; keys: --dump-schema). SM and\n"
"                     chip keys both work; chip keys accept a\n"
"                     dotted spelling (--set l2.slices=4)\n"
"  --dump-config      print the fully-resolved configuration\n"
"                     of every selected cell as JSON and exit\n"
"  --dump-schema      print the config field schema (keys,\n"
"                     types, defaults, docs) as JSON and exit\n"
"  --dry-run          expand and validate the selection, print\n"
"                     a summary, run nothing\n"
"\n"
"execution:\n"
"  -j, --jobs N       worker threads (default: all cores)\n"
"  --progress         per-cell progress lines on stderr\n"
"  --no-skip          step every cycle instead of event-driven\n"
"                     cycle skipping (bit-identical results;\n"
"                     the stepping-equivalence cross-check)\n"
"\n"
"result cache (docs/SERVE.md):\n"
"  --cache DIR        read-through/write-through result cache:\n"
"                     cells already in DIR are served from it,\n"
"                     computed cells are stored into it, so\n"
"                     runs on the same DIR share results\n"
"\n"
"output:\n"
"  --json PATH        write results as JSON\n"
"  --quiet            suppress the result tables\n"
"  --list-suites      print the built-in machines, the "
"workloads\n"
"                     and the scheduling policies\n"
"\n"
"regression gate:\n"
"  --compare BASE CAND  compare two result files, do not run;\n"
"                     any IPC change, missing or added cell\n"
"                     fails (the simulator is deterministic)\n"
"  --check PATH       load a result file (strict schema parse)\n"
"                     and gate on its health: every cell must\n"
"                     be verified, not timed out, and have\n"
"                     ipc > 0; do not run\n");
}

int
doCompare(const std::string &base_path,
          const std::string &cand_path)
{
    Results base, cand;
    std::string err;
    if (!Results::load(base_path, &base, &err) ||
        !Results::load(cand_path, &cand, &err)) {
        std::fprintf(stderr, "siwi-run: %s\n", err.c_str());
        return exit_io;
    }
    CompareReport rep = compareResults(base, cand, 0.0);
    std::fputs(rep.format().c_str(), stdout);
    return rep.pass() ? exit_ok : exit_regression;
}

int
doCheck(const std::string &path)
{
    // Results::load already refuses unknown schema versions and
    // malformed stats blocks; on top of that, gate on per-cell
    // health so CI smoke jobs fail loudly on a sick run.
    Results res;
    std::string err;
    if (!Results::load(path, &res, &err)) {
        std::fprintf(stderr, "siwi-run: %s\n", err.c_str());
        return exit_io;
    }
    size_t bad = 0;
    for (const CellResult &c : res.cells) {
        const char *why = nullptr;
        if (!c.verified)
            why = "failed verification";
        else if (c.timed_out)
            why = "timed out at the cycle cap";
        else if (!(c.ipc > 0.0))
            why = "has ipc <= 0";
        if (why) {
            ++bad;
            std::fprintf(stderr,
                         "siwi-run: --check %s: cell %s %s %s "
                         "%s\n",
                         path.c_str(), c.sweep.c_str(),
                         c.machine.c_str(), c.workload.c_str(),
                         why);
        }
    }
    if (bad) {
        std::fprintf(stderr,
                     "siwi-run: --check %s: %zu of %zu cell(s) "
                     "unhealthy\n",
                     path.c_str(), bad, res.cells.size());
        return exit_verify;
    }
    std::printf("check %s: %zu cell(s) healthy\n", path.c_str(),
                res.cells.size());
    return exit_ok;
}

/**
 * Tail of a completed run: tables, the results document and the
 * per-cell health gate.
 */
int
emitAndGate(const Results &res, bool quiet,
            const std::string &json_path)
{
    if (!quiet) {
        for (const std::string &name : res.sweepNames()) {
            std::printf("\n=== %s ===\n", name.c_str());
            std::fputs(formatSweepTable(res, name).c_str(),
                       stdout);
        }
    }

    std::string err;
    if (!json_path.empty() && !res.save(json_path, &err)) {
        std::fprintf(stderr, "siwi-run: %s\n", err.c_str());
        return exit_io;
    }

    if (res.verificationFailures()) {
        std::fprintf(stderr,
                     "siwi-run: %zu cell(s) failed verification\n",
                     res.verificationFailures());
        return exit_verify;
    }
    if (res.timeouts()) {
        std::fprintf(
            stderr,
            "siwi-run: %zu cell(s) timed out at the cycle cap "
            "(IPC not meaningful)\n",
            res.timeouts());
        return exit_verify;
    }
    return exit_ok;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgList args(argc, argv);

    if (args.flag("--help") || args.flag("-h")) {
        usage(stdout);
        return exit_ok;
    }
    if (args.flag("--dump-schema")) {
        // Self-describing schema of the config field tables;
        // docs/CONFIG.md's field tables equal this dump rendered
        // as Markdown (the pipeline.ConfigDocs test checks it).
        Json j = Json::object();
        j.set("sm", pipeline::smConfigSchema());
        j.set("chip", core::gpuConfigSchema());
        std::fputs((j.dump(2) + "\n").c_str(), stdout);
        return exit_ok;
    }
    if (args.flag("--list-suites")) {
        std::printf("machines:");
        const MachineRegistry builtin;
        for (const MachineSpec &m : builtin.machines())
            std::printf(" %s", m.name.c_str());
        std::printf("\nworkloads:");
        for (const workloads::Workload *w :
             workloads::allWorkloads())
            std::printf(" %s", w->name());
        std::printf("\npolicies:");
        for (const char *p : frontend::sched_policy_names)
            std::printf(" %s", p);
        std::printf("\n");
        return exit_ok;
    }

    // Pure comparison mode: --compare BASE CAND.
    std::string compare_base;
    if (args.option("--compare", &compare_base)) {
        if (args.remaining().size() != 1) {
            std::fprintf(stderr,
                         "siwi-run: --compare takes exactly two "
                         "files\n");
            return exit_usage;
        }
        return doCompare(compare_base, args.remaining()[0]);
    }

    // Pure health-gate mode: --check PATH.
    std::string check_path;
    if (args.option("--check", &check_path)) {
        if (!finishArgs(args, "siwi-run")) {
            usage(stderr);
            return exit_usage;
        }
        return doCheck(check_path);
    }

    std::string spec_path;
    bool have_spec = args.option("--spec", &spec_path);
    std::vector<std::string> set_kvs = args.options("--set");
    bool dump_config = args.flag("--dump-config");
    bool dry_run = args.flag("--dry-run");
    std::vector<std::string> machines = args.options("--machine");
    std::vector<std::string> wl_names = args.options("--workload");
    unsigned jobs = 0;
    if (!args.intOption("--jobs", &jobs))
        args.intOption("-j", &jobs);
    bool progress = args.flag("--progress");
    bool no_skip = args.flag("--no-skip");
    bool quiet = args.flag("--quiet");
    std::string json_path;
    args.option("--json", &json_path);
    std::string cache_dir;
    args.option("--cache", &cache_dir);

    if (!finishArgs(args, "siwi-run")) {
        usage(stderr);
        return exit_usage;
    }
    if (!have_spec) {
        std::fprintf(stderr, "siwi-run: a run needs --spec PATH\n");
        usage(stderr);
        return exit_usage;
    }

    MachineRegistry registry;
    std::vector<SweepSpec> sweeps;
    std::string label;
    std::string err;
    if (!loadSpecFile(spec_path, &registry, &sweeps, &label,
                      &err)) {
        std::fprintf(stderr, "siwi-run: %s\n", err.c_str());
        return exit_usage;
    }
    err = narrowSweeps(&sweeps, machines, wl_names);
    if (!err.empty()) {
        std::fprintf(stderr, "siwi-run: %s\n", err.c_str());
        return exit_usage;
    }
    // --set mutations apply to every machine of every selected
    // sweep, through the same field table as spec files, and the
    // result must pass the loader's sweep check again.
    for (SweepSpec &s : sweeps) {
        for (MachineSpec &m : s.machines) {
            for (const std::string &kv : set_kvs) {
                // SM keys mutate the machine config; chip keys
                // (l2_slices, dram_channels, noc_*, ...) are
                // recorded for application on the resolved chip.
                if (!machineApplyKeyValue(&m, kv, &err)) {
                    std::fprintf(stderr,
                                 "siwi-run: --set %s: %s\n",
                                 kv.c_str(), err.c_str());
                    return exit_usage;
                }
            }
        }
        err = checkSweep(s);
        if (!err.empty()) {
            std::fprintf(stderr, "siwi-run: %s\n", err.c_str());
            return exit_usage;
        }
        // Identical columns never run twice; drop them here so
        // --dry-run and --dump-config show what will execute.
        s.dedupeMachines();
    }

    if (dump_config) {
        // The same resolved-config blocks a run would embed into
        // its results artifact (narrow with --machine and
        // --workload to inspect a single cell).
        Json j = Json::object();
        j.set("machines", machinesToJson(machineRecords(sweeps)));
        std::fputs((j.dump(2) + "\n").c_str(), stdout);
        return exit_ok;
    }

    if (dry_run) {
        // Everything above already expanded machines, resolved
        // machine files and validated every sweep — report and
        // stop. ctest runs this over every checked-in spec.
        size_t cells = 0;
        for (const SweepSpec &s : sweeps) {
            std::printf("%-16s %zu machine(s) x %zu workload(s)"
                        " x %zu sm-count(s) x %zu policy(ies) = "
                        "%zu cells (%s)\n",
                        s.name.c_str(), s.machines.size(),
                        s.wls.size(), s.sms.size(),
                        s.policies.size(), s.cellCount(),
                        sizeClassName(s.size));
            cells += s.cellCount();
        }
        std::printf("dry run: %zu cell(s) in %zu sweep(s), "
                    "configuration OK\n",
                    cells, sweeps.size());
        return exit_ok;
    }

    RunOptions opts;
    opts.jobs = jobs;
    opts.progress = progress;
    opts.suite_label = label;
    opts.cycle_skip = !no_skip;

    size_t total = 0;
    for (const SweepSpec &s : sweeps)
        total += s.cellCount();
    serve::ResultCache cache;
    if (!cache_dir.empty()) {
        std::string cerr_;
        if (!cache.open(cache_dir, 0, &cerr_)) {
            std::fprintf(stderr, "siwi-run: %s\n", cerr_.c_str());
            return exit_io;
        }
    }
    serve::CachedRunCounters cc;
    Results res =
        cache_dir.empty()
            ? runSweeps(sweeps, opts)
            : serve::runSweepsCached(sweeps, opts, &cache, &cc);
    std::fprintf(stderr, "siwi-run: %zu cells on %u thread(s)\n",
                 total, effectiveJobs(jobs, total));
    if (!cache_dir.empty())
        std::fprintf(stderr,
                     "siwi-run: cache %s: %llu hit(s), %llu "
                     "computed\n",
                     cache_dir.c_str(),
                     (unsigned long long)cc.hits,
                     (unsigned long long)cc.misses);

    return emitAndGate(res, quiet, json_path);
}
