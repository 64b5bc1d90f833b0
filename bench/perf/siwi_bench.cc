/**
 * @file
 * siwi-bench: the repository benchmark (bench/perf/README.md).
 *
 * One process runs one workload — a fixed set of simulation cells
 * loaded from bench/perf/workloads/ — as a closed loop with a
 * single client: a fixed number of sweep passes, one at a time,
 * through the library's public entry points (runner::loadSpecFile,
 * runner::runSweeps, serve::runSweepsCached). A fixed host
 * reference kernel runs between passes, and host times are reported
 * scaled by it to the reference host's speed, which cancels most of
 * the host's speed drift. Every pass checks every cell against
 * bench/perf/expected.json, and the fast suite additionally against
 * bench/baseline.json at tolerance 0. The last stdout line is one
 * JSON object:
 *
 *   {"correct": ..., "attempted": cells, "failed": cells,
 *    "metrics": {name: {"value": v, "unit": u}, ...}}
 *
 * holding the BENCHMARK.json end_to_end metrics, or with --trace 1
 * its per_layer metrics. The traced run executes one more pass
 * cell by cell through the calls workloads::runWorkload makes,
 * records a span around each, writes the spans as Chrome
 * trace-event JSON and rolls their self times up per layer.
 *
 *   siwi-bench --workload W [--seed N] [--trace 0|1]
 *              [--results PATH] [--smoke]
 *   siwi-bench --compare A.json B.json
 *   siwi-bench --update-expected
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "common/sha256.hh"
#include "runner/runner.hh"
#include "serve/cache_key.hh"
#include "serve/cached_run.hh"
#include "serve/result_cache.hh"
#include "workloads/workload.hh"

using namespace siwi;
namespace fs = std::filesystem;

namespace {

const std::string kSourceDir = SIWI_PERF_SOURCE_DIR;
const std::string kBinaryDir = SIWI_PERF_BINARY_DIR;
const std::string kRepoDir = kSourceDir + "/../..";

/** One benchmark workload: which spec it runs, and how. */
struct WorkloadDef
{
    const char *name;
    const char *spec; //!< bench/perf/workloads/<spec>.json
    bool cached;      //!< through serve::runSweepsCached
    /**
     * Timed cycles per run. A cycle is one pass; for a cached
     * workload, one cold pass into an empty cache plus kWarmPasses
     * warm ones.
     */
    unsigned cycles;
};

const WorkloadDef kWorkloads[] = {
    {"fig7_full", "fig7_full", false, 6},
    {"chip_banked", "chip_banked", false, 4},
    {"fast_suite", "fast_suite", false, 40},
    {"cache_rerun", "fast_suite", true, 8},
};

/** Warm (all-hit) passes per cache_rerun cycle. */
constexpr unsigned kWarmPasses = 25;
/**
 * Set-up rounds per run, each one set-up on every usable CPU, and
 * each set-up followed on its CPU by one set-up reference sample.
 */
constexpr unsigned kSetupRounds = 50;
/** Host reference samples per run, spread over the cycle boundaries. */
constexpr unsigned kReferenceSamples = 48;
/**
 * The host reference's median wall and CPU time on the reference
 * host (README.md, First numbers). A host time t measured beside
 * reference samples of median r is reported as t * kReference / r,
 * its value at the speed the reference host usually runs at. That
 * cancels most of a shared host's speed drift, which moved raw times
 * by a third between sets of runs taken minutes apart.
 */
constexpr double kReferenceWallS = 0.035;
constexpr double kReferenceCpuS = 0.13;
/**
 * The set-up reference (one unit of the host reference's work, on
 * one thread) takes about as long as a set-up. Its median wall time
 * on the reference host; a set-up is reported as its time over the
 * sample that followed it on the same CPU, times this.
 */
constexpr double kReferenceSetupS = 1.0e-4;
/** Least share of traced cell time the layer spans must cover. */
constexpr double kMinSpanCoverage = 0.98;
/**
 * Smallest setup_s difference --compare calls worse or better: set-up
 * takes well under a millisecond, where host noise alone moves it by
 * more than any relative bound.
 */
constexpr double kSetupFloorS = 0.005;

// ---------------------------------------------------------------
// Host clocks and statistics
// ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process user+sys CPU seconds so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** CPUs this process may run on (what nproc reports). */
cpu_set_t
usableCpuSet()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        CPU_SET(0, &set);
    return set;
}

unsigned
usableCpus()
{
    cpu_set_t set = usableCpuSet();
    return unsigned(std::max(1, CPU_COUNT(&set)));
}

/** Pin the calling thread to the @p i-th usable CPU, cyclically. */
void
pinToUsableCpu(const cpu_set_t &usable, unsigned i)
{
    i %= unsigned(std::max(1, CPU_COUNT(&usable)));
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &usable) && i-- == 0) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(c, &one);
            sched_setaffinity(0, sizeof(one), &one);
            return;
        }
    }
}

/**
 * Q1, median, Q3 of @p v by the "exclusive" method of Python's
 * statistics.quantiles(n=4), so quoted spreads match it.
 */
std::array<double, 3>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 0)
        return {0.0, 0.0, 0.0};
    if (n == 1)
        return {v[0], v[0], v[0]};
    std::array<double, 3> q{};
    const size_t m = n + 1;
    for (size_t i = 1; i <= 3; ++i) {
        size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
        const double delta = double(i * m) - double(j * 4);
        q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    return q;
}

double
median(const std::vector<double> &v)
{
    return quartiles(v)[1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Simulated and deterministic: must repeat exactly. */
    bool exact = false;
    bool higher_better = false;
    /** Per-pass samples the value is the median of (may be empty). */
    std::vector<double> samples;
    std::string note;
};

const Metric *
findMetric(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

void
printMetric(const Metric &m)
{
    std::printf("%-34s %-14.6g %s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples.size() > 1) {
        const auto q = quartiles(m.samples);
        std::printf("  (median of %zu; q1 %.6g, q3 %.6g)",
                    m.samples.size(), q[0], q[2]);
    }
    if (!m.note.empty())
        std::printf("  %s", m.note.c_str());
    std::printf("\n");
}

/** The metric names BENCHMARK.json lists under @p section. */
bool
benchmarkMetricNames(const std::string &section,
                     std::vector<std::string> *names,
                     std::vector<double> *bounds, std::string *err)
{
    Json doc = Json::parseFile(kRepoDir + "/BENCHMARK.json", err);
    if (!err->empty())
        return false;
    const Json *list = doc.find(section);
    if (!list || !list->isArray()) {
        *err = "BENCHMARK.json: no " + section + " list";
        return false;
    }
    for (const Json &e : list->arr()) {
        names->push_back(e.getString("name"));
        if (bounds)
            bounds->push_back(e.getDouble("bound", 0.0));
    }
    return true;
}

// ---------------------------------------------------------------
// Set-up: spec load, seeded order, expansion, config resolution
// ---------------------------------------------------------------

struct Setup
{
    std::vector<runner::SweepSpec> sweeps;
    std::vector<runner::CellSpec> cells;
    std::vector<runner::MachineRecord> machines; //!< resolved configs
    serve::ResultCache cache; //!< opened for cached workloads only
    Rng order; //!< the seed's stream of execution orders
};

template <typename T>
void
shuffle(std::vector<T> *v, Rng *rng)
{
    for (size_t i = v->size(); i > 1; --i)
        std::swap((*v)[i - 1], (*v)[rng->below(i)]);
}

/**
 * The seed moves only the execution order: machine, workload and
 * SM-count axes are permuted inside each sweep before expansion.
 * Cell identity and each cell's inputs (seeded inside
 * Workload::init) do not change.
 */
void
shuffleAxes(std::vector<runner::SweepSpec> *sweeps, Rng *rng)
{
    for (runner::SweepSpec &s : *sweeps) {
        shuffle(&s.machines, rng);
        shuffle(&s.wls, rng);
        shuffle(&s.sms, rng);
    }
}

/** Reverse the shuffled axes: each sweep's cells run back to front. */
void
reverseAxes(std::vector<runner::SweepSpec> *sweeps)
{
    for (runner::SweepSpec &s : *sweeps) {
        std::reverse(s.machines.begin(), s.machines.end());
        std::reverse(s.wls.begin(), s.wls.end());
        std::reverse(s.sms.begin(), s.sms.end());
    }
}

/** Result cache of the measured passes. */
std::string
cacheDir()
{
    return kBinaryDir + "/cache_rerun.tmp";
}

/** Set up @p spec; open a cache at @p cache_dir unless empty. */
bool
setUp(const std::string &spec, unsigned seed,
      const std::string &cache_dir, Setup *out, std::string *err)
{
    runner::MachineRegistry reg;
    std::string label;
    if (!runner::loadSpecFile(kSourceDir + "/workloads/" + spec +
                                  ".json",
                              &reg, &out->sweeps, &label, err))
        return false;
    out->order = Rng(seed);
    shuffleAxes(&out->sweeps, &out->order);
    out->cells = runner::expandCells(out->sweeps);
    out->machines = runner::machineRecords(out->sweeps);
    return cache_dir.empty() || out->cache.open(cache_dir, 0, err);
}

// ---------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------

std::string
cellId(const std::string &sweep, const std::string &machine,
       const std::string &workload)
{
    return sweep + "/" + machine + "/" + workload;
}

std::string
cellId(const runner::CellResult &c)
{
    return cellId(c.sweep, c.machine, c.workload);
}

std::string
expectedPath()
{
    return kSourceDir + "/expected.json";
}

/**
 * Checks every cell of every pass: verified, not timed out, and
 * its cellToJson dump hashing to the committed digest; the fast
 * suite also matches bench/baseline.json at tolerance 0.
 */
class Checker
{
  public:
    bool load(const std::string &digest_set, bool with_baseline,
              std::string *err)
    {
        Json doc = Json::parseFile(expectedPath(), err);
        if (!err->empty())
            return false;
        const Json *set = doc.find(digest_set);
        if (!set || !set->isObject()) {
            *err = expectedPath() + ": no digest set " + digest_set;
            return false;
        }
        for (const Json::Member &m : set->obj())
            digests_[m.first] = m.second.isString() ? m.second.str()
                                                    : std::string();
        if (with_baseline) {
            baseline_.emplace();
            if (!runner::Results::load(kRepoDir +
                                           "/bench/baseline.json",
                                       &*baseline_, err))
                return false;
        }
        return true;
    }

    /**
     * Check one pass. @p jsons, when given, holds each cell's
     * cellToJson value already built by the caller.
     */
    void check(const runner::Results &res,
               const std::vector<Json> *jsons = nullptr)
    {
        std::set<std::string> bad;
        for (size_t i = 0; i < res.cells.size(); ++i) {
            const runner::CellResult &c = res.cells[i];
            const std::string id = cellId(c);
            const std::string dump =
                jsons ? (*jsons)[i].dump()
                      : runner::cellToJson(c).dump();
            auto it = digests_.find(id);
            if (!c.verified || c.timed_out) {
                fail(&bad, id, c.verified ? "timed out"
                                          : "not verified: " +
                                                c.verify_msg);
            } else if (it == digests_.end()) {
                fail(&bad, id, "no expected digest");
            } else if (it->second != sha256Hex(dump)) {
                fail(&bad, id, "digest differs from expected.json");
            }
        }
        u64 missing = 0;
        if (baseline_) {
            runner::CompareReport rep =
                runner::compareResults(*baseline_, res, 0.0);
            for (const auto *list : {&rep.regressions,
                                     &rep.improvements}) {
                for (const runner::CellDelta &d : *list)
                    fail(&bad, cellId(d.sweep, d.machine, d.workload),
                         "IPC differs from bench/baseline.json");
            }
            missing = rep.missing.size();
            if (missing)
                report("bench/baseline.json",
                       std::to_string(missing) + " cell(s) missing");
        }
        attempted += res.cells.size();
        failed += bad.size() + missing;
    }

    /** Count @p n attempted cells that failed outside check(). */
    void failCells(u64 n, const std::string &why)
    {
        failed += n;
        report("pass", why);
    }

    /** A failure of the harness itself (no cell to blame). */
    void error(const std::string &why)
    {
        harness_ok = false;
        report("harness", why);
    }

    bool correct() const { return failed == 0 && harness_ok; }

    u64 attempted = 0;
    u64 failed = 0;
    bool harness_ok = true;

  private:
    void fail(std::set<std::string> *bad, const std::string &id,
              const std::string &why)
    {
        if (bad->insert(id).second)
            report(id, why);
    }

    void report(const std::string &what, const std::string &why)
    {
        if (reported_++ < 10)
            std::fprintf(stderr, "siwi-bench: FAIL %s: %s\n",
                         what.c_str(), why.c_str());
    }

    std::map<std::string, std::string> digests_;
    std::optional<runner::Results> baseline_;
    unsigned reported_ = 0;
};

// ---------------------------------------------------------------
// Simulated (exact) summary of one pass
// ---------------------------------------------------------------

/** Paper Figure 7 gmean SBI+SWI speedups over Baseline (%). */
constexpr double kPaperRegularPct = 23.0;
constexpr double kPaperIrregularPct = 40.0;

/**
 * Geomean independent of cell order: the seed permutes the cells,
 * and a floating-point sum in another order differs in its last
 * bits, so exact metrics sum in sorted order.
 */
double
orderedGeomean(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return runner::geomean(v);
}

/** Gmean SBI+SWI / Baseline IPC on @p sweep, TMD excluded. */
std::optional<double>
sbiSwiSpeedupPct(const runner::Results &res, const std::string &sweep)
{
    std::vector<double> base, sbiswi;
    for (const runner::CellResult &c : res.cells) {
        if (c.sweep != sweep || c.excluded_from_means)
            continue;
        if (c.machine == "Baseline")
            base.push_back(c.ipc);
        else if (c.machine == "SBI+SWI")
            sbiswi.push_back(c.ipc);
    }
    if (base.empty() || base.size() != sbiswi.size())
        return std::nullopt;
    return 100.0 * (orderedGeomean(sbiswi) / orderedGeomean(base) -
                    1.0);
}

u64
threadInstructions(const runner::Results &res)
{
    u64 n = 0;
    for (const runner::CellResult &c : res.cells)
        n += c.stats.thread_instructions;
    return n;
}

void
addExactMetrics(const runner::Results &res, std::vector<Metric> *out)
{
    std::vector<double> ipcs;
    for (const runner::CellResult &c : res.cells) {
        if (!c.excluded_from_means)
            ipcs.push_back(c.ipc);
    }
    out->push_back({"ipc_gmean", orderedGeomean(ipcs),
                    "tinst/cycle", true, true, {}, ""});
    const std::pair<const char *, double> sets[] = {
        {"regular", kPaperRegularPct},
        {"irregular", kPaperIrregularPct}};
    for (const auto &[set, paper] : sets) {
        auto pct = sbiSwiSpeedupPct(res, std::string("fig7_") + set);
        if (!pct)
            continue;
        char note[96];
        std::snprintf(note, sizeof(note),
                      "paper %+.1f %%, simulated minus paper %+.1f",
                      paper, *pct - paper);
        out->push_back({std::string("sbiswi_speedup_") + set + "_pct",
                        *pct, "%", true, true, {}, note});
    }
}

// ---------------------------------------------------------------
// Untraced passes (the end-to-end measurement)
// ---------------------------------------------------------------

struct PassTime
{
    double wall = 0.0;
    double cpu = 0.0;
};

/**
 * One pass as a user runs it: the sweep, then its results
 * document (what siwi-run --json writes).
 */
runner::Results
runPass(Setup &s, const runner::RunOptions &opts, PassTime *t,
        serve::CachedRunCounters *counters = nullptr)
{
    const Clock::time_point t0 = Clock::now();
    const double c0 = cpuSeconds();
    runner::Results res =
        counters ? serve::runSweepsCached(s.sweeps, opts, &s.cache,
                                          counters)
                 : runner::runSweeps(s.sweeps, opts);
    res.toJsonText();
    t->wall = secondsSince(t0);
    t->cpu = cpuSeconds() - c0;
    return res;
}

/** Keeps the host reference's work from being optimised away. */
std::atomic<u64> g_reference_sink{0};

/**
 * The host reference's unit of work: fixed work that shares no code
 * with the simulator (small heap allocations and string-keyed maps,
 * which follow the host's speed drift closely).
 */
u64
referenceWork(int item, int reps)
{
    u64 acc = 0;
    for (int r = 0; r < reps; ++r) {
        std::vector<std::unique_ptr<std::vector<int>>> objs;
        for (int i = 0; i < 500; ++i) {
            objs.push_back(std::make_unique<std::vector<int>>(
                size_t(16 + (i * 37) % 200), i + r));
            acc += u64(objs.back()->back());
        }
        std::map<std::string, int> keys;
        for (int i = 0; i < 100; ++i)
            keys["key" + std::to_string(i * 31 + r + item)] = i;
        acc += u64(keys.begin()->second);
    }
    return acc;
}

/**
 * One sample of the host reference. Like a pass, @p jobs threads
 * pull its items off one counter, so a slow CPU takes fewer.
 */
PassTime
hostReference(unsigned jobs)
{
    constexpr int kItems = 64;
    std::atomic<int> next{0};
    auto work = [&next] {
        u64 acc = 0;
        for (int item = next.fetch_add(1); item < kItems;
             item = next.fetch_add(1))
            acc += referenceWork(item, 25);
        g_reference_sink += acc;
    };
    const Clock::time_point t0 = Clock::now();
    const double c0 = cpuSeconds();
    std::vector<std::thread> threads;
    for (unsigned j = 0; j < jobs; ++j)
        threads.emplace_back(work);
    for (std::thread &th : threads)
        th.join();
    return {secondsSince(t0), cpuSeconds() - c0};
}

/** Times of one kind: as measured, and in reference-host seconds. */
struct Samples
{
    std::vector<double> host, ref_host;

    void add(double host_s, double scale)
    {
        host.push_back(host_s);
        ref_host.push_back(host_s * scale);
    }
};

struct Measurement
{
    Samples wall, cpu, fill;
    std::vector<double> ref_wall, ref_cpu; //!< every reference sample
    runner::Results first; //!< first pass that simulated every cell
};

/**
 * The closed loop: @p cycles cycles, each one pass or, for a cached
 * workload, one cold pass into an empty cache plus @p warm_passes
 * warm ones. The host reference runs before the first cycle and
 * after every cycle, about kReferenceSamples times per run; each
 * pass is scaled by the mean of the two reference medians around its
 * cycle.
 *
 * Where an execution order puts the long cells moves a pass's wall
 * time (on chip_banked by up to 30%), so a run covers many
 * orders: cycles come in pairs, the first drawing the seed's next
 * order and the second running it reversed, so a cell that one
 * starts late the other starts early.
 */
Measurement
measure(Setup &s, bool cached, unsigned jobs, unsigned cycles,
        unsigned warm_passes, Checker *chk)
{
    runner::RunOptions opts;
    opts.jobs = jobs;
    Measurement m;
    const unsigned per_boundary =
        (kReferenceSamples + cycles) / (cycles + 1);
    auto reference = [&] {
        std::vector<double> wall, cpu;
        for (unsigned i = 0; i < per_boundary; ++i) {
            const PassTime t = hostReference(jobs);
            wall.push_back(t.wall);
            cpu.push_back(t.cpu);
        }
        m.ref_wall.insert(m.ref_wall.end(), wall.begin(), wall.end());
        m.ref_cpu.insert(m.ref_cpu.end(), cpu.begin(), cpu.end());
        return PassTime{median(wall), median(cpu)};
    };
    PassTime ref = reference();
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        std::vector<PassTime> timed;
        std::optional<double> fill;
        PassTime t;
        if (!cached) {
            runner::Results res = runPass(s, opts, &t);
            chk->check(res);
            timed.push_back(t);
            if (m.first.cells.empty())
                m.first = std::move(res);
        } else {
            std::error_code ec;
            fs::remove_all(cacheDir(), ec);
            std::string err;
            if (!s.cache.open(cacheDir(), 0, &err)) {
                chk->failCells(s.cells.size(), err);
                break;
            }
            serve::CachedRunCounters cold;
            runner::Results res = runPass(s, opts, &t, &cold);
            chk->check(res);
            if (cold.misses != s.cells.size())
                chk->failCells(cold.hits, "cold pass hit the cache");
            fill = t.wall;
            if (m.first.cells.empty())
                m.first = std::move(res);
            for (unsigned w = 0; w < warm_passes; ++w) {
                serve::CachedRunCounters warm;
                chk->check(runPass(s, opts, &t, &warm));
                if (warm.misses)
                    chk->failCells(warm.misses,
                                   "warm pass missed the cache");
                timed.push_back(t);
            }
        }
        const PassTime next = reference();
        const double wall_scale =
            kReferenceWallS / (0.5 * (ref.wall + next.wall));
        const double cpu_scale =
            kReferenceCpuS / (0.5 * (ref.cpu + next.cpu));
        for (const PassTime &p : timed) {
            m.wall.add(p.wall, wall_scale);
            m.cpu.add(p.cpu, cpu_scale);
        }
        if (fill)
            m.fill.add(*fill, wall_scale);
        ref = next;
        if (cycle % 2 == 0)
            reverseAxes(&s.sweeps);
        else
            shuffleAxes(&s.sweeps, &s.order);
    }
    return m;
}

// ---------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------

/** Trace epoch: spans are stored in ns since this point. */
Clock::time_point g_epoch;

i64
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_epoch)
        .count();
}

struct Span
{
    const char *name;
    int parent; //!< index in the same track, -1 for a root
    int cell;   //!< cell index of the pass, -1 outside cells
    int pass;   //!< traced pass index
    i64 start_ns;
    i64 end_ns;
};

/** The spans one thread recorded, in start order. */
struct Track
{
    std::vector<Span> spans;
    int open = -1;
    int pass = 0;
};

/** RAII span: starts now, nests under the open span, ends at scope exit. */
class Scope
{
  public:
    Scope(Track *t, const char *name, int cell = -1)
        : t_(t), idx_(int(t->spans.size()))
    {
        t_->spans.push_back(
            {name, t_->open, cell, t_->pass, nowNs(), 0});
        t_->open = idx_;
    }
    ~Scope()
    {
        Span &s = t_->spans[size_t(idx_)];
        s.end_ns = nowNs();
        t_->open = s.parent;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Track *t_;
    int idx_;
};

template <typename F>
auto
traced(Track *t, const char *name, F &&f)
{
    Scope s(t, name);
    return f();
}

/**
 * One cell through the same public calls runCell() and
 * workloads::runWorkload() make, each inside its span.
 */
runner::CellResult
tracedCell(const runner::SweepSpec &sw, const runner::CellSpec &cs,
           Track *t, u64 *skipped)
{
    const workloads::Workload &w = *sw.wls[cs.wl];
    const core::GpuConfig chip = traced(t, "runner.resolve", [&] {
        return runner::resolvedCellConfig(sw, cs.machine, cs.sms,
                                          cs.policy);
    });
    const workloads::Instance inst = traced(
        t, "workloads.instance", [&] { return w.instance(sw.size); });
    const core::Kernel kernel = traced(t, "cfg.compile", [&] {
        return core::Kernel::compile(inst.raw, inst.compile);
    });
    std::optional<core::Gpu> gpu;
    traced(t, "core.gpu_build", [&] { gpu.emplace(chip); });
    traced(t, "workloads.init",
           [&] { w.init(gpu->memory(), sw.size); });
    core::LaunchConfig lc;
    lc.grid_blocks = inst.grid_blocks;
    lc.block_threads = inst.block_threads;
    runner::CellResult c;
    c.stats = traced(t, "core.launch",
                     [&] { return gpu->launch(kernel, lc); });
    c.verified = traced(t, "workloads.verify", [&] {
        return w.verify(gpu->memory(), sw.size, &c.verify_msg);
    });
    *skipped = gpu->skippedCycles();

    // Field for field what runCell() records.
    const frontend::SchedPolicyKind pol =
        runner::effectivePolicy(sw, cs.machine, cs.policy);
    c.sweep = sw.name;
    c.num_sms = sw.smsAt(cs.sms);
    c.machine = runner::cellMachineLabel(sw.machines[cs.machine].name,
                                         pol, c.num_sms);
    c.policy = frontend::schedPolicyName(pol);
    c.workload = w.name();
    c.size = runner::sizeClassName(sw.size);
    c.excluded_from_means = w.excludedFromMeans();
    c.timed_out = c.stats.timed_out;
    c.ipc = c.stats.ipc();
    return c;
}

struct TracedPass
{
    runner::Results res;
    std::vector<Json> jsons;   //!< runner.cell_json output per cell
    std::vector<u64> skipped;  //!< Gpu::skippedCycles per cell
    std::vector<char> simulated; //!< not vector<bool>: workers write it
    double wall = 0.0;
    u64 hits = 0;
    u64 lookups = 0;
};

/**
 * One traced pass on a pool of @p jobs workers pulling cells in
 * expansion order; cached passes look up, and store on a miss, in
 * the order runSweepsCached uses.
 */
TracedPass
runTracedPass(Setup &s, bool cached, unsigned jobs, int pass,
              std::vector<Track> *tracks)
{
    TracedPass tp;
    const size_t n = s.cells.size();
    tp.res.suite = "traced";
    tp.res.machines = s.machines;
    tp.res.cells.resize(n);
    tp.jsons.resize(n);
    tp.skipped.assign(n, 0);
    tp.simulated.assign(n, false);
    std::atomic<size_t> next{0};
    std::atomic<u64> hits{0};

    auto worker = [&](Track *t) {
        t->pass = pass;
        for (size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            const runner::CellSpec &cs = s.cells[i];
            const runner::SweepSpec &sw = s.sweeps[cs.sweep];
            Scope cell(t, "cell", int(i));
            runner::CellResult c;
            std::string key;
            bool hit = false;
            if (cached) {
                key = traced(t, "serve.key", [&] {
                    return serve::cellCacheKey(sw, cs);
                });
                hit = traced(t, "serve.lookup",
                             [&] { return s.cache.lookup(key, &c); });
            }
            if (!hit) {
                c = tracedCell(sw, cs, t, &tp.skipped[i]);
                tp.simulated[i] = true;
            } else {
                hits.fetch_add(1);
            }
            if (cached && !hit) {
                std::string err;
                if (!traced(t, "serve.store",
                            [&] { return s.cache.store(key, c, &err); }))
                    std::fprintf(stderr, "siwi-bench: %s\n",
                                 err.c_str());
            }
            tp.jsons[i] = traced(t, "runner.cell_json",
                                 [&] { return runner::cellToJson(c); });
            tp.res.cells[i] = std::move(c);
        }
    };

    const Clock::time_point t0 = Clock::now();
    {
        std::vector<std::thread> threads;
        for (unsigned j = 0; j < jobs; ++j)
            threads.emplace_back(worker, &(*tracks)[j + 1]);
        for (std::thread &th : threads)
            th.join();
    }
    traced(&(*tracks)[0], "runner.serialize",
           [&] { return tp.res.toJsonText(); });
    tp.wall = secondsSince(t0);
    tp.hits = hits.load();
    tp.lookups = cached ? n : 0;
    return tp;
}

/** Span durations and self times rolled up over all tracks. */
struct Rollup
{
    std::map<std::string, double> self_s; //!< by span name
    std::map<std::string, u64> count;     //!< spans by name
    double cell_s = 0.0;                  //!< sum of cell spans
    double cell_children_s = 0.0;         //!< their child spans
    double max_cell_s = 0.0;
    bool nested = true;
    /** Per cell span: (pass, cell index) -> duration, launch self. */
    std::map<std::pair<int, int>, std::pair<double, double>> cells;
};

Rollup
rollUp(const std::vector<Track> &tracks)
{
    Rollup r;
    for (const Track &t : tracks) {
        std::vector<double> child_s(t.spans.size(), 0.0);
        for (const Span &s : t.spans) {
            if (s.end_ns < s.start_ns)
                r.nested = false;
            if (s.parent < 0)
                continue;
            const Span &p = t.spans[size_t(s.parent)];
            if (s.start_ns < p.start_ns || s.end_ns > p.end_ns)
                r.nested = false;
            child_s[size_t(s.parent)] += 1e-9 * double(s.end_ns -
                                                       s.start_ns);
        }
        for (size_t i = 0; i < t.spans.size(); ++i) {
            const Span &s = t.spans[i];
            const double dur = 1e-9 * double(s.end_ns - s.start_ns);
            const double self = dur - child_s[i];
            r.self_s[s.name] += self;
            ++r.count[s.name];
            if (std::string_view(s.name) == "cell") {
                r.cell_s += dur;
                r.cell_children_s += child_s[i];
                r.max_cell_s = std::max(r.max_cell_s, dur);
                r.cells[{s.pass, s.cell}].first = dur;
            } else if (std::string_view(s.name) == "core.launch") {
                const Span &p = t.spans[size_t(s.parent)];
                r.cells[{s.pass, p.cell}].second = self;
            }
        }
    }
    return r;
}

/** Chrome trace-event JSON: one track per thread. */
Json
chromeTrace(const std::vector<Track> &tracks,
            const std::vector<TracedPass> &passes)
{
    Json events = Json::array();
    for (size_t tid = 0; tid < tracks.size(); ++tid) {
        Json meta = Json::object();
        meta.set("name", "thread_name");
        meta.set("ph", "M");
        meta.set("pid", 1);
        meta.set("tid", unsigned(tid));
        Json args = Json::object();
        args.set("name", tid == 0 ? std::string("main")
                                  : "worker " + std::to_string(tid));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
        for (const Span &s : tracks[tid].spans) {
            const std::string name = s.name;
            Json e = Json::object();
            e.set("name", name);
            e.set("cat", name.substr(0, name.find('.')));
            e.set("ph", "X");
            e.set("ts", 1e-3 * double(s.start_ns));
            e.set("dur", 1e-3 * double(s.end_ns - s.start_ns));
            e.set("pid", 1);
            e.set("tid", unsigned(tid));
            if (s.cell >= 0) {
                const runner::CellResult &c =
                    passes[size_t(s.pass)].res.cells[size_t(s.cell)];
                Json a = Json::object();
                a.set("cell", cellId(c));
                a.set("pass", s.pass);
                e.set("args", std::move(a));
            }
            events.push(std::move(e));
        }
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

u64
smCycles(const core::SimStats &st)
{
    if (st.per_sm.empty())
        return st.cycles;
    u64 n = 0;
    for (const core::SimStats &sm : st.per_sm)
        n += sm.cycles;
    return n;
}

u64
dirBytes(const std::string &dir)
{
    u64 n = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            n += it->file_size(ec);
    }
    return n;
}

/**
 * Per-layer metrics of the traced passes: host self times from the
 * spans, exact counters from the cells the first pass simulated.
 */
std::vector<Metric>
layerMetrics(const Rollup &r, const std::vector<TracedPass> &passes,
             unsigned jobs, double fill_s, u64 blob_bytes)
{
    auto self = [&](const char *name) {
        auto it = r.self_s.find(name);
        return it == r.self_s.end() ? 0.0 : it->second;
    };
    auto spans = [&](const char *name) {
        auto it = r.count.find(name);
        return it == r.count.end() ? u64(0) : it->second;
    };

    double wall = 0.0;
    for (const TracedPass &p : passes)
        wall += p.wall;

    // Exact counters over the cells the first pass simulated.
    const TracedPass &sim = passes.front();
    std::vector<core::SimStats> cells;
    u64 sm_cycles = 0, skipped = 0, lane_slots = 0, unit_slots = 0,
        dram_stall = 0, noc_stall = 0;
    std::set<std::pair<std::string, std::string>> kernels;
    for (size_t i = 0; i < sim.res.cells.size(); ++i) {
        if (!sim.simulated[i])
            continue;
        const runner::CellResult &c = sim.res.cells[i];
        const core::SimStats &st = c.stats;
        const u64 cyc = smCycles(st);
        const runner::MachineRecord *rec =
            sim.res.findMachine(c.sweep, c.machine);
        const unsigned width = rec ? rec->config.sm.warp_width : 0;
        cells.push_back(st);
        kernels.insert({c.workload, c.size});
        sm_cycles += cyc;
        skipped += sim.skipped[i];
        lane_slots += st.instructions * width;
        unit_slots += st.units.size() * cyc;
        for (const mem::DramStats &d : st.dram_channels)
            dram_stall += d.stall_tenths;
        for (const mem::NocPortStats &p : st.noc_ports)
            noc_stall += p.stall_tenths;
    }
    // Sums every u64 counter and merges units by name.
    const core::SimStats tot = core::SimStats::aggregate(cells);
    u64 unit_busy = 0;
    for (const core::UnitStats &u : tot.units)
        unit_busy += u.busy_cycles;
    u64 hits = 0, lookups = 0;
    for (size_t p = 1; p < passes.size(); ++p) {
        hits += passes[p].hits;
        lookups += passes[p].lookups;
    }

    // Directions as BENCHMARK.json lists them.
    auto host = [](const char *name, double v, const char *unit,
                   bool higher = false) {
        return Metric{name, v, unit, false, higher, {}, ""};
    };
    auto exact = [](const char *name, double v, const char *unit,
                    bool higher = false) {
        return Metric{name, v, unit, true, higher, {}, ""};
    };
    const double launch_s = self("core.launch");
    return {
        host("runner.spec_s", self("runner.spec"), "s"),
        host("runner.serialize_s", self("runner.serialize"), "s"),
        host("runner.resolve_s", self("runner.resolve"), "s"),
        host("runner.cell_json_s", self("runner.cell_json"), "s"),
        host("runner.pool_util", ratio(r.cell_s, jobs * wall),
             "ratio", true),
        host("runner.critical_cell_s", r.max_cell_s, "s"),
        host("workloads.instance_s", self("workloads.instance"), "s"),
        host("workloads.init_s", self("workloads.init"), "s"),
        host("workloads.verify_s", self("workloads.verify"), "s"),
        host("cfg.compile_s", self("cfg.compile"), "s"),
        exact("cfg.compiles_per_kernel",
              ratio(double(spans("cfg.compile")),
                    double(kernels.size())),
              "ratio"),
        host("core.gpu_build_s", self("core.gpu_build"), "s"),
        host("core.launch_s", launch_s, "s"),
        host("core.launch_ns_per_smcycle",
             ratio(1e9 * launch_s, double(sm_cycles)), "ns/smcycle"),
        host("core.launch_ns_per_tinst",
             ratio(1e9 * launch_s, double(tot.thread_instructions)),
             "ns/tinst"),
        exact("core.sm_cycles", double(sm_cycles), "count"),
        exact("core.skipped_frac",
              ratio(double(skipped), double(sm_cycles)), "ratio", true),
        exact("pipeline.avg_runnable_warps",
              ratio(double(tot.runnable_warp_cycles),
                    double(sm_cycles)),
              "warps"),
        exact("pipeline.warp_sleep_cycles",
              double(tot.warp_sleep_cycles), "count", true),
        exact("frontend.instructions", double(tot.instructions),
              "count"),
        exact("frontend.secondary_issue_frac",
              ratio(double(tot.secondary_issues),
                    double(tot.instructions)),
              "ratio", true),
        exact("frontend.conflicts_squashed",
              double(tot.conflicts_squashed), "count"),
        exact("frontend.cascade_stale", double(tot.cascade_stale),
              "count"),
        exact("frontend.sync_suspensions",
              double(tot.sync_suspensions), "count"),
        exact("divergence.warp_splits", double(tot.warp_splits),
              "count"),
        exact("divergence.merges", double(tot.merges), "count", true),
        exact("divergence.heap_full_stalls",
              double(tot.heap_full_stalls), "count"),
        exact("divergence.cct_degraded_inserts",
              double(tot.cct_degraded_inserts), "count"),
        exact("exec.lane_util",
              ratio(double(tot.thread_instructions),
                    double(lane_slots)),
              "ratio", true),
        exact("exec.unit_busy_frac",
              ratio(double(unit_busy), double(unit_slots)), "ratio", true),
        exact("mem.l1_hit_rate",
              ratio(double(tot.l1_hits),
                    double(tot.l1_hits + tot.l1_misses)),
              "ratio", true),
        exact("mem.mshr_stalls", double(tot.mshr_stalls), "count"),
        exact("mem.l2_hit_rate",
              ratio(double(tot.l2_hits),
                    double(tot.l2_hits + tot.l2_misses)),
              "ratio", true),
        exact("mem.dram_bytes", double(tot.dram_bytes), "bytes"),
        exact("mem.dram_stall_tenths", double(dram_stall),
              "0.1cycle"),
        exact("mem.noc_stall_tenths", double(noc_stall), "0.1cycle"),
        host("serve.key_s", self("serve.key"), "s"),
        host("serve.lookup_s", self("serve.lookup"), "s"),
        host("serve.store_s", self("serve.store"), "s"),
        exact("serve.hit_ratio",
              ratio(double(hits), double(lookups)), "ratio", true),
        exact("serve.blob_bytes", double(blob_bytes), "bytes"),
        host("serve.fill_s", fill_s, "s"),
    };
}

// ---------------------------------------------------------------
// Results file and the final line
// ---------------------------------------------------------------

Json
metricsJson(const std::vector<Metric> &ms)
{
    Json o = Json::object();
    for (const Metric &m : ms) {
        Json e = Json::object();
        e.set("value", m.value);
        e.set("unit", m.unit);
        e.set("kind", m.exact ? "exact" : "host");
        e.set("better", m.higher_better ? "higher" : "lower");
        o.set(m.name, std::move(e));
    }
    return o;
}

Json
samplesJson(const std::vector<double> &v)
{
    Json a = Json::array();
    for (double x : v)
        a.push(x);
    return a;
}

/** Append @p run to the run-set file at @p path (created if absent). */
bool
appendRun(const std::string &path, Json run, std::string *err)
{
    Json doc = Json::object();
    if (fs::exists(path)) {
        doc = Json::parseFile(path, err);
        if (!err->empty())
            return false;
    }
    if (!doc.find("runs")) {
        doc = Json::object();
        doc.set("siwi_bench_results", 1);
        doc.set("runs", Json::array());
    }
    for (Json::Member &m : doc.obj()) {
        if (m.first == "runs")
            m.second.push(std::move(run));
    }
    return doc.writeFile(path, 2, err);
}

/** The one-line result object, restricted to @p names. */
bool
printFinalLine(bool correct, u64 attempted, u64 failed,
               const std::vector<Metric> &ms,
               const std::vector<std::string> &names)
{
    Json metrics = Json::object();
    bool ok = true;
    for (const std::string &n : names) {
        const Metric *m = findMetric(ms, n);
        if (!m) {
            std::fprintf(stderr,
                         "siwi-bench: metric %s is not measured\n",
                         n.c_str());
            ok = false;
            continue;
        }
        Json e = Json::object();
        e.set("value", m->value);
        e.set("unit", m->unit);
        metrics.set(n, std::move(e));
    }
    Json line = Json::object();
    line.set("correct", correct && ok);
    line.set("attempted", attempted);
    line.set("failed", failed);
    line.set("metrics", std::move(metrics));
    std::printf("%s\n", line.dump().c_str());
    return ok;
}

// ---------------------------------------------------------------
// Modes
// ---------------------------------------------------------------

struct RunArgs
{
    const WorkloadDef *wl = nullptr;
    unsigned seed = 1;
    bool trace = false;
    bool smoke = false;
    std::string results;
};

/**
 * The traced run: one more pass (cached: a cold and a warm one)
 * through tracedCell() after the untraced loop has set its
 * medians. Writes the Chrome trace, self-checks it, prints the
 * tracing overhead and the slowest cells, and returns the
 * per-layer metrics; per-cell rows go to @p cells_json.
 */
std::vector<Metric>
runTraced(const RunArgs &a, const std::string &spec,
          const std::string &cache, unsigned jobs,
          const Measurement &m, Checker *chk, Json *cells_json)
{
    std::string err;
    const double host_wall = median(m.wall.host);
    const double host_fill =
        m.fill.host.empty() ? 0.0 : median(m.fill.host);
    std::vector<Track> tracks(jobs + 1);
    g_epoch = Clock::now();
    std::unique_ptr<Setup> setup = std::make_unique<Setup>();
    {
        std::error_code ec;
        if (!cache.empty())
            fs::remove_all(cache, ec);
        Scope spec_span(&tracks[0], "runner.spec");
        if (!setUp(spec, a.seed, cache, setup.get(), &err)) {
            chk->error(err);
            return {};
        }
    }
    const int npasses = a.wl->cached ? 2 : 1;
    std::vector<TracedPass> passes;
    for (int p = 0; p < npasses; ++p) {
        passes.push_back(
            runTracedPass(*setup, a.wl->cached, jobs, p, &tracks));
        chk->check(passes.back().res, &passes.back().jsons);
    }
    const u64 blob_bytes =
        a.wl->cached ? dirBytes(cacheDir() + "/objects") : 0;
    const Rollup r = rollUp(tracks);
    const double fill =
        m.fill.ref_host.empty() ? 0.0 : median(m.fill.ref_host);
    std::vector<Metric> layers =
        layerMetrics(r, passes, jobs, fill, blob_bytes);

    // Self-check: spans nest, the layer spans cover the cell
    // time, and the trace file parses back.
    const double coverage = ratio(r.cell_children_s, r.cell_s);
    const std::string out =
        kBinaryDir + "/trace-" + a.wl->name + ".json";
    const Json trace = chromeTrace(tracks, passes);
    const size_t events = trace.find("traceEvents")->arr().size();
    Json reread;
    if (trace.writeFile(out, -1, &err))
        reread = Json::parseFile(out, &err);
    const Json *ev = reread.find("traceEvents");
    const bool parses = err.empty() && ev && ev->isArray() &&
                        ev->arr().size() == events;
    if (!r.nested || coverage < kMinSpanCoverage || !parses)
        chk->error("trace self-check");
    std::printf("trace: %s (%zu events, %u worker tracks)%s\n",
                out.c_str(), events, jobs,
                parses ? "" : " DOES NOT PARSE BACK");
    std::printf("trace: spans %s; layer spans cover %.2f%% of "
                "traced cell time (need %.0f%%)\n",
                r.nested ? "nest" : "DO NOT NEST",
                100.0 * coverage, 100.0 * kMinSpanCoverage);
    const char *pass_names[] = {a.wl->cached ? "cold " : "",
                                "warm "};
    for (int p = 0; p < npasses; ++p) {
        const double untraced =
            a.wl->cached && p == 0 ? host_fill : host_wall;
        std::printf("trace: %spass %.6g s traced vs %.6g s "
                    "untraced median: overhead %+.6g s "
                    "(%+.1f%%)\n",
                    pass_names[p], passes[size_t(p)].wall, untraced,
                    passes[size_t(p)].wall - untraced,
                    100.0 * ratio(passes[size_t(p)].wall - untraced,
                                  untraced));
    }

    // Per-cell rows, slowest first.
    std::vector<std::pair<double, std::pair<int, int>>> order;
    for (const auto &[key, v] : r.cells)
        order.push_back({v.first, key});
    std::sort(order.rbegin(), order.rend());
    std::printf("slowest traced cells:\n  %-44s %10s %10s %12s "
                "%8s\n",
                "cell", "cell_s", "launch_s", "sm_cycles",
                "skipped");
    for (size_t i = 0; i < order.size(); ++i) {
        const auto [pass, idx] = order[i].second;
        const TracedPass &tp = passes[size_t(pass)];
        const runner::CellResult &c = tp.res.cells[size_t(idx)];
        const u64 cyc = smCycles(c.stats);
        const double skipped_frac =
            ratio(double(tp.skipped[size_t(idx)]), double(cyc));
        const double launch = r.cells.at({pass, idx}).second;
        Json row = Json::object();
        row.set("cell", cellId(c));
        row.set("pass", pass);
        row.set("cell_s", order[i].first);
        row.set("launch_s", launch);
        row.set("sm_cycles", cyc);
        row.set("skipped_frac", skipped_frac);
        cells_json->push(std::move(row));
        if (i < 10)
            std::printf("  %-44s %10.6f %10.6f %12llu %8.4f\n",
                        cellId(c).c_str(), order[i].first, launch,
                        static_cast<unsigned long long>(cyc),
                        skipped_frac);
    }
    return layers;
}

int
benchWorkload(const RunArgs &a, Clock::time_point main_start)
{
    const unsigned jobs = std::min(4u, usableCpus());
    const std::string spec = a.smoke ? "smoke" : a.wl->spec;
    const bool baseline =
        !a.smoke && std::string_view(a.wl->spec) == "fast_suite";

    std::string err;
    std::vector<std::string> names;
    if (!benchmarkMetricNames(a.trace ? "per_layer" : "end_to_end",
                              &names, nullptr, &err)) {
        std::fprintf(stderr, "siwi-bench: %s\n", err.c_str());
        return 2;
    }

    // Set-up runs kSetupRounds rounds, each one set-up from scratch
    // on every usable CPU in turn, and each followed on its CPU by a
    // set-up reference sample. One CPU of a shared host can run at
    // half the speed of another, and the host's speed drifts between
    // runs; the ratio of the two cancels both, where the raw set-up
    // time moved by a quarter. The first set-up is timed from main
    // entry and makes the empty cache directory; later ones open it
    // as it is, since directory creation waits on the file system,
    // whose latency the reference cannot follow. The median leaves
    // out the cold set-ups. The last set-up is the one the passes
    // use; every cycle starts on a fresh cache of its own.
    const std::string cache = a.wl->cached ? cacheDir() : "";
    std::error_code ec;
    fs::remove_all(cacheDir(), ec);
    const cpu_set_t usable = usableCpuSet();
    const unsigned ncpus = usableCpus();
    std::vector<double> setup_host, setup_ref, setup_scaled;
    double setup_first = 0.0;
    std::unique_ptr<Setup> setup;
    Clock::time_point t0 = main_start;
    for (unsigned r = 0; r < kSetupRounds; ++r) {
        for (unsigned c = 0; c < ncpus; ++c) {
            pinToUsableCpu(usable, c);
            setup.reset();
            if (r + c > 0)
                t0 = Clock::now();
            setup = std::make_unique<Setup>();
            if (!setUp(spec, a.seed, cache, setup.get(), &err)) {
                std::fprintf(stderr, "siwi-bench: %s\n", err.c_str());
                return 2;
            }
            const double t = secondsSince(t0);
            const Clock::time_point r0 = Clock::now();
            g_reference_sink += referenceWork(int(r), 1);
            const double ref = secondsSince(r0);
            if (r + c == 0)
                setup_first = t;
            setup_host.push_back(t);
            setup_ref.push_back(ref);
            setup_scaled.push_back(t * kReferenceSetupS / ref);
        }
    }
    // Threads inherit affinity: unpin before the passes start any.
    sched_setaffinity(0, sizeof(usable), &usable);
    // The smoke cells are a subset of the fast suite's.
    Checker chk;
    if (!chk.load(a.smoke ? "fast_suite" : a.wl->spec, baseline,
                  &err)) {
        std::fprintf(stderr, "siwi-bench: %s\n", err.c_str());
        return 2;
    }

    // A smoke run is one cycle (cached: one cold and one warm pass).
    Measurement m =
        measure(*setup, a.wl->cached, jobs, a.smoke ? 1 : a.wl->cycles,
                a.smoke ? 1 : kWarmPasses, &chk);
    // Before the traced run, whose spans would add to it.
    const double peak_rss_mb = peakRssMiB();
    const double wall = median(m.wall.ref_host);

    const char *pass = a.wl->cached ? "(warm, all-hit pass)" : "";
    const char *here = "(this host)";
    std::vector<Metric> ms;
    ms.push_back({"wall_s", wall, "s", false, false, m.wall.ref_host,
                  pass});
    ms.push_back({"cpu_s", median(m.cpu.ref_host), "s", false, false,
                  m.cpu.ref_host, pass});
    ms.push_back({"setup_s", median(setup_scaled), "s", false, false,
                  setup_scaled, ""});
    if (!a.wl->cached) {
        ms.push_back({"sim_tinst_per_s",
                      ratio(double(threadInstructions(m.first)), wall),
                      "tinst/s", false, true, {}, ""});
    } else {
        ms.push_back({"fill_s", median(m.fill.ref_host), "s", false,
                      false, m.fill.ref_host,
                      "(cold pass into an empty cache)"});
    }
    ms.push_back({"peak_rss_mb", peak_rss_mb, "MiB", false, false, {},
                  ""});
    ms.push_back({"host_wall_s", median(m.wall.host), "s", false, false,
                  m.wall.host, here});
    ms.push_back({"host_cpu_s", median(m.cpu.host), "s", false, false,
                  m.cpu.host, here});
    ms.push_back({"host_setup_s", median(setup_host), "s", false, false,
                  setup_host, here});
    ms.push_back({"host_setup_first_s", setup_first, "s", false, false,
                  {}, "(this host, main entry to first set-up done)"});
    ms.push_back({"reference_wall_s", median(m.ref_wall), "s", false,
                  false, m.ref_wall, here});
    ms.push_back({"reference_cpu_s", median(m.ref_cpu), "s", false,
                  false, m.ref_cpu, here});
    ms.push_back({"reference_setup_s", median(setup_ref), "s", false,
                  false, setup_ref, here});
    ms.push_back({"fail_frac",
                  ratio(double(chk.failed), double(chk.attempted)),
                  "ratio", true, false, {}, ""});
    addExactMetrics(m.first, &ms);

    std::printf("siwi-bench %s%s: %zu cells, %u jobs, seed %u, "
                "%zu timed passes\n",
                a.wl->name, a.smoke ? " (smoke)" : "",
                setup->cells.size(), jobs, a.seed,
                m.wall.host.size() + m.fill.host.size());
    for (const Metric &x : ms)
        printMetric(x);

    Json cells_json = Json::array();
    std::vector<Metric> layers;
    if (a.trace)
        layers = runTraced(a, spec, cache, jobs, m, &chk, &cells_json);
    fs::remove_all(cacheDir(), ec);

    for (const Metric &x : layers)
        printMetric(x);

    const bool correct = chk.correct();
    if (!a.results.empty()) {
        Json run = Json::object();
        run.set("workload", a.wl->name);
        run.set("seed", a.seed);
        run.set("cycles", a.smoke ? 1u : a.wl->cycles);
        run.set("smoke", a.smoke);
        run.set("trace", a.trace);
        run.set("jobs", jobs);
        run.set("cells", u64(setup->cells.size()));
        run.set("attempted", chk.attempted);
        run.set("failed", chk.failed);
        run.set("metrics", metricsJson(ms));
        if (!a.trace) {
            Json samples = Json::object();
            samples.set("wall_s", samplesJson(m.wall.ref_host));
            samples.set("cpu_s", samplesJson(m.cpu.ref_host));
            samples.set("fill_s", samplesJson(m.fill.ref_host));
            samples.set("host_wall_s", samplesJson(m.wall.host));
            samples.set("host_cpu_s", samplesJson(m.cpu.host));
            samples.set("host_fill_s", samplesJson(m.fill.host));
            samples.set("setup_s", samplesJson(setup_scaled));
            samples.set("host_setup_s", samplesJson(setup_host));
            samples.set("reference_wall_s", samplesJson(m.ref_wall));
            samples.set("reference_cpu_s", samplesJson(m.ref_cpu));
            samples.set("reference_setup_s", samplesJson(setup_ref));
            Json counts = Json::object();
            for (const Json::Member &x : samples.obj())
                counts.set(x.first, u64(x.second.arr().size()));
            run.set("samples", std::move(samples));
            run.set("sample_counts", std::move(counts));
        } else {
            run.set("layers", metricsJson(layers));
            run.set("cells_traced", std::move(cells_json));
        }
        if (!appendRun(a.results, std::move(run), &err)) {
            std::fprintf(stderr, "siwi-bench: %s\n", err.c_str());
            return 2;
        }
    }
    const bool complete =
        printFinalLine(correct, chk.attempted, chk.failed,
                       a.trace ? layers : ms, names);
    return correct && complete ? 0 : 1;
}

/** Regenerate expected.json from one canonical pass of each spec. */
int
updateExpected()
{
    Json doc = Json::object();
    doc.set("siwi_bench_expected", 1);
    int rc = 0;
    for (const char *spec : {"fig7_full", "chip_banked", "fast_suite"}) {
        Setup s;
        std::string err;
        if (!setUp(spec, 1, "", &s, &err)) {
            std::fprintf(stderr, "siwi-bench: %s\n", err.c_str());
            return 2;
        }
        runner::RunOptions opts;
        opts.jobs = std::min(4u, usableCpus());
        const runner::Results res = runner::runSweeps(s.sweeps, opts);
        std::map<std::string, std::string> digests;
        for (const runner::CellResult &c : res.cells) {
            if (!c.verified || c.timed_out) {
                std::fprintf(stderr, "siwi-bench: %s failed\n",
                             cellId(c).c_str());
                rc = 1;
            }
            digests[cellId(c)] = sha256Hex(runner::cellToJson(c).dump());
        }
        Json set = Json::object();
        for (auto &[id, d] : digests)
            set.set(id, d);
        doc.set(spec, std::move(set));
        std::printf("%s: %zu cells\n", spec, res.cells.size());
    }
    std::string err;
    if (rc == 0 && !doc.writeFile(expectedPath(), 2, &err)) {
        std::fprintf(stderr, "siwi-bench: %s\n", err.c_str());
        return 2;
    }
    return rc;
}

/**
 * Compare two run-set files workload by workload: medians and
 * quartiles per metric over the untraced runs of each side, and a
 * verdict against the BENCHMARK.json bounds. Host metrics not
 * listed there are printed without a verdict.
 */
int
compareRunSets(const std::string &path_a, const std::string &path_b)
{
    std::string err;
    std::vector<std::string> names;
    std::vector<double> bounds;
    Json a = Json::parseFile(path_a, &err);
    Json b = err.empty() ? Json::parseFile(path_b, &err) : Json();
    if (err.empty())
        benchmarkMetricNames("end_to_end", &names, &bounds, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "siwi-bench: %s\n", err.c_str());
        return 2;
    }
    std::map<std::string, double> bound;
    for (size_t i = 0; i < names.size(); ++i)
        bound[names[i]] = bounds[i];

    // workload -> metric -> values over runs; plus metric traits.
    using Values = std::map<std::string, std::map<std::string,
                                                  std::vector<double>>>;
    std::map<std::string, Json> traits;
    auto collect = [&](const Json &doc, Values *out) {
        const Json *runs = doc.find("runs");
        if (!runs || !runs->isArray())
            return;
        for (const Json &r : runs->arr()) {
            if (r.getBool("trace") || r.getBool("smoke"))
                continue;
            const Json *ms = r.find("metrics");
            if (!ms || !ms->isObject())
                continue;
            for (const Json::Member &m : ms->obj()) {
                (*out)[r.getString("workload")][m.first].push_back(
                    m.second.getDouble("value"));
                traits[m.first] = m.second;
            }
        }
    };
    Values va, vb;
    collect(a, &va);
    collect(b, &vb);
    if (va.empty() || vb.empty()) {
        std::fprintf(stderr, "siwi-bench: no untraced runs to compare\n");
        return 2;
    }

    int worse = 0;
    std::printf("%-12s %-28s %-3s %12s %12s %12s | %12s %12s %12s  "
                "%s\n",
                "workload", "metric", "n", "A q1", "A median", "A q3",
                "B q1", "B median", "B q3", "verdict");
    for (const auto &[wl, metrics] : va) {
        for (const auto &[name, xa] : metrics) {
            auto wit = vb.find(wl);
            if (wit == vb.end() || !wit->second.count(name)) {
                std::printf("%-12s %-28s missing from B\n", wl.c_str(),
                            name.c_str());
                ++worse;
                continue;
            }
            const std::vector<double> &xb = wit->second.at(name);
            const Json &t = traits[name];
            const bool exact = t.getString("kind") == "exact";
            const bool higher = t.getString("better") == "higher";
            const auto qa = quartiles(xa), qb = quartiles(xb);
            std::string verdict;
            if (exact) {
                std::set<double> all(xa.begin(), xa.end());
                all.insert(xb.begin(), xb.end());
                verdict = all.size() == 1 ? "identical" : "worse";
            } else if (!bound.count(name)) {
                verdict = "(no bound)";
            } else {
                double allowed = bound[name] * qa[1];
                const bool floored =
                    name == "setup_s" && allowed < kSetupFloorS;
                if (floored)
                    allowed = kSetupFloorS;
                const double spread =
                    std::max(qa[2] - qa[0], qb[2] - qb[0]);
                // Positive = B worse.
                const double delta =
                    higher ? qa[1] - qb[1] : qb[1] - qa[1];
                const double a_best =
                    higher ? *std::max_element(xa.begin(), xa.end())
                           : *std::min_element(xa.begin(), xa.end());
                const double b_worst =
                    higher ? *std::min_element(xb.begin(), xb.end())
                           : *std::max_element(xb.begin(), xb.end());
                const bool b_always_better =
                    higher ? b_worst > a_best : b_worst < a_best;
                if (spread > allowed && !b_always_better)
                    verdict = "unresolved";
                else if (delta > allowed)
                    verdict = "worse";
                else if (-delta > allowed)
                    verdict = "better";
                else
                    verdict = "within";
                char buf[48];
                if (floored)
                    std::snprintf(buf, sizeof(buf), " (bound %g ms)",
                                  1e3 * allowed);
                else
                    std::snprintf(buf, sizeof(buf), " (bound %.1f%%)",
                                  100.0 * bound[name]);
                verdict += buf;
            }
            if (verdict.rfind("worse", 0) == 0 ||
                verdict.rfind("unresolved", 0) == 0)
                ++worse;
            std::printf("%-12s %-28s %-3zu %12.6g %12.6g %12.6g | "
                        "%12.6g %12.6g %12.6g  %s\n",
                        wl.c_str(), name.c_str(),
                        std::min(xa.size(), xb.size()), qa[0], qa[1],
                        qa[2], qb[0], qb[1], qb[2], verdict.c_str());
        }
    }
    std::printf("%d worse or unresolved entr%s\n", worse,
                worse == 1 ? "y" : "ies");
    return worse ? 1 : 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: siwi-bench --workload W [--seed N] [--trace 0|1]\n"
        "                  [--results PATH] [--smoke]\n"
        "       siwi-bench --compare A.json B.json\n"
        "       siwi-bench --update-expected\n"
        "workloads: fig7_full chip_banked fast_suite cache_rerun\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point main_start = Clock::now();
    runner::ArgList args(argc, argv);

    std::string cmp_a;
    if (args.option("--compare", &cmp_a)) {
        if (args.remaining().size() != 1) {
            usage();
            return 2;
        }
        return compareRunSets(cmp_a, args.remaining()[0]);
    }
    if (args.flag("--update-expected")) {
        if (!runner::finishArgs(args, "siwi-bench"))
            return 2;
        return updateExpected();
    }

    RunArgs a;
    std::string wl, trace = "0";
    args.option("--workload", &wl);
    args.intOption("--seed", &a.seed);
    args.option("--trace", &trace);
    args.option("--results", &a.results);
    a.smoke = args.flag("--smoke");
    if (!runner::finishArgs(args, "siwi-bench"))
        return 2;
    for (const WorkloadDef &d : kWorkloads) {
        if (wl == d.name)
            a.wl = &d;
    }
    if (!a.wl || (trace != "0" && trace != "1")) {
        usage();
        return 2;
    }
    a.trace = trace == "1";
    return benchWorkload(a, main_start);
}
