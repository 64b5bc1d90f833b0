/**
 * @file
 * siwi-run: parallel experiment-runner CLI.
 *
 * Runs the experiment a spec file describes (bench/specs/) across
 * a thread pool, prints the paper-style tables, emits
 * machine-readable JSON/CSV, and implements the CI
 * bench-regression gate by comparing result files against a
 * committed baseline.
 *
 * Exit codes: 0 success, 1 verification failure, 2 regression
 * gate failed, 3 usage error, 4 I/O error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
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
"  --size SIZE        tiny | full | chip: override the sweep "
"size\n"
"  --machine NAME     keep only this machine (repeatable)\n"
"  --workload NAME    keep only this workload (repeatable)\n"
"  --sms N            override the SM-count axis of every\n"
"                     selected sweep (repeatable, e.g.\n"
"                     --sms 1 --sms 4)\n"
"  --policy NAME      override the scheduling-policy axis:\n"
"                     oldest | rr | gto | minpc (repeatable)\n"
"\n"
"configuration:\n"
"  --machine-file PATH  add a machine loaded from a JSON\n"
"                     machine file to every selected sweep\n"
"                     (repeatable; see docs/CONFIG.md)\n"
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
"                     a summary, run nothing (CI spec gate)\n"
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
"  --csv PATH         write results as CSV\n"
"  --quiet            suppress the result tables\n"
"  --list             print the selected cells and exit\n"
"  --list-suites      print the built-in machines, the "
"workloads\n"
"                     and the scheduling policies\n"
"\n"
"regression gate:\n"
"  --baseline PATH    after running, compare against this "
"baseline\n"
"  --compare BASE CAND  compare two result files, do not run\n"
"  --tolerance PCT    relative IPC tolerance (default 2.0)\n"
"  --check PATH       load a result file (strict schema parse)\n"
"                     and gate on its health: every cell must\n"
"                     be verified, not timed out, and have\n"
"                     ipc > 0; do not run\n");
}

int
doCompare(const std::string &base_path,
          const std::string &cand_path, double tolerance)
{
    Results base, cand;
    std::string err;
    if (!Results::load(base_path, &base, &err) ||
        !Results::load(cand_path, &cand, &err)) {
        std::fprintf(stderr, "siwi-run: %s\n", err.c_str());
        return exit_io;
    }
    CompareReport rep = compareResults(base, cand, tolerance);
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
 * Tail of a completed run: tables, artifact writes, the per-cell
 * health gate and the baseline regression gate.
 */
int
emitAndGate(const Results &res, bool quiet,
            const std::string &json_path,
            const std::string &csv_path,
            const std::string &baseline_path, double tolerance)
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
    if (!csv_path.empty()) {
        std::FILE *f = std::fopen(csv_path.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "siwi-run: cannot write %s\n",
                         csv_path.c_str());
            return exit_io;
        }
        std::string csv = res.toCsv();
        size_t written =
            std::fwrite(csv.data(), 1, csv.size(), f);
        if (std::fclose(f) != 0 || written != csv.size()) {
            std::fprintf(stderr, "siwi-run: write error on %s\n",
                         csv_path.c_str());
            return exit_io;
        }
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

    if (!baseline_path.empty()) {
        Results base;
        if (!Results::load(baseline_path, &base, &err)) {
            std::fprintf(stderr, "siwi-run: %s\n", err.c_str());
            return exit_io;
        }
        CompareReport rep = compareResults(base, res, tolerance);
        std::fputs(rep.format().c_str(), stdout);
        if (!rep.pass())
            return exit_regression;
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
        // Self-describing schema of the config field tables; the
        // reference tables in docs/CONFIG.md are generated from
        // this dump.
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

    double tolerance_pct = 2.0;
    args.doubleOption("--tolerance", &tolerance_pct);
    // Non-finite values would make every gate comparison false
    // (an unconditional PASS), so reject them with the negatives.
    bool bad_tolerance =
        !std::isfinite(tolerance_pct) || tolerance_pct < 0.0;
    if (!args.errors().empty() || bad_tolerance) {
        for (const std::string &e : args.errors())
            std::fprintf(stderr, "siwi-run: %s\n", e.c_str());
        if (bad_tolerance)
            std::fprintf(stderr,
                         "siwi-run: --tolerance must be a finite "
                         "value >= 0\n");
        return exit_usage;
    }
    double tolerance = tolerance_pct / 100.0;

    // Pure comparison mode: --compare BASE CAND.
    std::string compare_base;
    if (args.option("--compare", &compare_base)) {
        if (args.remaining().size() != 1) {
            std::fprintf(stderr,
                         "siwi-run: --compare takes exactly two "
                         "files\n");
            return exit_usage;
        }
        return doCompare(compare_base, args.remaining()[0],
                         tolerance);
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
    std::vector<std::string> machine_files =
        args.options("--machine-file");
    std::vector<std::string> set_kvs = args.options("--set");
    bool dump_config = args.flag("--dump-config");
    bool dry_run = args.flag("--dry-run");
    size_t size_idx = 0;
    bool have_size = args.enumOption(
        "--size", workloads::size_class_names, &size_idx);
    std::vector<std::string> machines = args.options("--machine");
    std::vector<std::string> wl_names = args.options("--workload");
    std::vector<unsigned> sms_axis;
    if (!smsAxisOption(args, "siwi-run", &sms_axis))
        return exit_usage;
    std::vector<frontend::SchedPolicyKind> policy_axis;
    size_t policy_idx = 0;
    while (args.enumOption("--policy", frontend::sched_policy_names,
                           &policy_idx))
        policy_axis.push_back(frontend::SchedPolicyKind(policy_idx));
    unsigned jobs = 0;
    if (!args.intOption("--jobs", &jobs))
        args.intOption("-j", &jobs);
    bool progress = args.flag("--progress");
    bool no_skip = args.flag("--no-skip");
    bool quiet = args.flag("--quiet");
    bool list_only = args.flag("--list");
    std::string json_path, csv_path, baseline_path;
    args.option("--json", &json_path);
    args.option("--csv", &csv_path);
    args.option("--baseline", &baseline_path);
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

    // Resolve machine names against the registry: the built-in
    // paper machines plus any --machine-file machines, loaded in
    // order so a later file may base itself on an earlier one.
    MachineRegistry registry;
    std::vector<std::string> added_machines;
    for (const std::string &path : machine_files) {
        MachineSpec m;
        std::string merr;
        if (!loadMachineFile(path, registry, &m, &merr) ||
            !registry.add(m, &merr)) {
            std::fprintf(stderr, "siwi-run: %s\n", merr.c_str());
            return exit_usage;
        }
        added_machines.push_back(m.name);
    }

    std::vector<SweepSpec> sweeps;
    std::string label;
    std::string serr;
    if (!loadSpecFile(spec_path, &registry, &sweeps, &label,
                      &serr)) {
        std::fprintf(stderr, "siwi-run: %s\n", serr.c_str());
        return exit_usage;
    }
    if (have_size) {
        for (SweepSpec &s : sweeps)
            s.size = workloads::SizeClass(size_idx);
    }
    // A --machine-file machine joins every selected sweep as an
    // extra column (combine with --machine to keep only it).
    for (SweepSpec &s : sweeps) {
        for (const std::string &name : added_machines) {
            bool clash = false;
            for (const MachineSpec &m : s.machines)
                clash = clash || m.name == name;
            if (clash) {
                std::fprintf(stderr,
                             "siwi-run: machine '%s' already in "
                             "sweep '%s'\n",
                             name.c_str(), s.name.c_str());
                return exit_usage;
            }
            s.machines.push_back(*registry.find(name));
        }
    }
    for (SweepSpec &s : sweeps) {
        s.filterMachines(machines);
        s.filterWorkloads(wl_names);
        if (!sms_axis.empty())
            s.sms = sms_axis;
        if (!policy_axis.empty())
            s.policies = policy_axis;
    }
    // --set mutations apply to every machine of every selected
    // sweep, through the same field table as spec files; the
    // result must still satisfy the config invariants.
    for (SweepSpec &s : sweeps) {
        for (MachineSpec &m : s.machines) {
            for (const std::string &kv : set_kvs) {
                // SM keys mutate the machine config; chip keys
                // (l2_slices, dram_channels, noc_*, ...) are
                // recorded for application on the resolved chip.
                std::string serr;
                if (!machineApplyKeyValue(&m, kv, &serr)) {
                    std::fprintf(stderr,
                                 "siwi-run: --set %s: %s\n",
                                 kv.c_str(), serr.c_str());
                    return exit_usage;
                }
            }
            std::string inv = m.config.checkInvariants();
            if (!inv.empty()) {
                std::fprintf(
                    stderr,
                    "siwi-run: machine '%s' in sweep '%s': %s\n",
                    m.name.c_str(), s.name.c_str(), inv.c_str());
                return exit_usage;
            }
        }
        // Identical columns never run twice; warn here so --list
        // and --dump-config show what will actually execute.
        s.dedupeMachines();
        std::string axes = s.checkAxes();
        if (!axes.empty()) {
            std::fprintf(stderr, "siwi-run: %s\n", axes.c_str());
            return exit_usage;
        }
        // Chip invariants (slice/channel topology vs cache
        // geometry) only materialize on the resolved per-cell
        // chip, after GpuConfig::make() and chip_sets.
        std::string chips = checkResolvedConfigs(s);
        if (!chips.empty()) {
            std::fprintf(stderr, "siwi-run: %s\n", chips.c_str());
            return exit_usage;
        }
    }
    std::erase_if(sweeps, [](const SweepSpec &s) {
        return s.cellCount() == 0;
    });
    if (sweeps.empty()) {
        std::fprintf(stderr,
                     "siwi-run: selection matches no cells\n");
        return exit_usage;
    }

    if (dump_config) {
        // The same resolved-config blocks a run would embed into
        // its results artifact (narrow with --machine/--workload
        // etc. to inspect a single cell).
        Json j = Json::object();
        j.set("machines", machinesToJson(machineRecords(sweeps)));
        std::fputs((j.dump(2) + "\n").c_str(), stdout);
        return exit_ok;
    }

    if (dry_run) {
        // Everything above already expanded machines, resolved
        // spec/machine files and validated invariants — report
        // and stop. CI runs this over every checked-in spec.
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

    if (list_only) {
        for (const CellSpec &c : expandCells(sweeps)) {
            const SweepSpec &s = sweeps[c.sweep];
            std::printf(
                "%s %s %s %s %usm %s\n", s.name.c_str(),
                s.machines[c.machine].name.c_str(),
                s.wls[c.wl]->name(), sizeClassName(s.size),
                s.smsAt(c.sms),
                frontend::schedPolicyName(
                    effectivePolicy(s, c.machine, c.policy)));
        }
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

    return emitAndGate(res, quiet, json_path, csv_path,
                       baseline_path, tolerance);
}
