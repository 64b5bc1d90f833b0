#include "pipeline/config.hh"

#include <sstream>
#include <string>

#include "common/bits.hh"
#include "common/log.hh"
#include "pipeline/config_io.hh"

namespace siwi::pipeline {

namespace {

/** "key (value)": how a rejection names the field behind it. */
std::string
named(const char *key, u32 value)
{
    return std::string(key) + " (" + std::to_string(value) + ")";
}

} // namespace

SMConfig
SMConfig::make(PipelineMode mode)
{
    SMConfig c;
    switch (mode) {
      case PipelineMode::Baseline:
        // Figure 1: two 32-wide pools, stack reconvergence.
        c.warp_width = 32;
        c.num_warps = 32;
        c.num_pools = 2;
        c.mad_groups = 2;
        c.mad_width = 32;
        c.reconv = ReconvMode::Stack;
        c.delivery_latency = 0;
        c.split_on_memory_divergence = false; // stack cannot split
        break;
      case PipelineMode::Warp64:
        c.warp_width = 64;
        c.num_warps = 16;
        c.num_pools = 2;
        c.mad_groups = 1;
        c.mad_width = 64;
        c.reconv = ReconvMode::ThreadFrontier;
        c.delivery_latency = 1;
        break;
      case PipelineMode::SBI:
        c.warp_width = 64;
        c.num_warps = 16;
        c.num_pools = 1;
        c.mad_groups = 1;
        c.mad_width = 64;
        c.reconv = ReconvMode::ThreadFrontier;
        c.sbi = true;
        c.delivery_latency = 1;
        break;
      case PipelineMode::SWI:
        c.warp_width = 64;
        c.num_warps = 16;
        c.num_pools = 1;
        c.mad_groups = 1;
        c.mad_width = 64;
        c.reconv = ReconvMode::ThreadFrontier;
        c.swi = true;
        c.delivery_latency = 1;
        c.lane_shuffle = LaneShufflePolicy::XorRev;
        break;
      case PipelineMode::SBISWI:
        c.warp_width = 64;
        c.num_warps = 16;
        c.num_pools = 1;
        c.mad_groups = 1;
        c.mad_width = 64;
        c.reconv = ReconvMode::ThreadFrontier;
        c.sbi = true;
        c.swi = true;
        c.delivery_latency = 1;
        c.lane_shuffle = LaneShufflePolicy::XorRev;
        break;
    }
    c.validate();
    return c;
}

std::string
SMConfig::checkInvariants() const
{
    // The bounds of the field list. Those on counts that size
    // per-SM storage sit far above every built-in machine and
    // committed spec; they turn a stray value into this error
    // instead of an unbounded allocation (docs/CONFIG.md lists
    // them).
    std::string range = checkRanges(*this, smConfigFields());
    if (!range.empty())
        return range;
    if (!isPow2(warp_width))
        return "warp_width must be a power of two";
    if (num_pools != 1 && num_pools != 2)
        return "num_pools must be 1 or 2";
    if (num_warps % num_pools != 0)
        return named("num_warps", num_warps) +
               " must split evenly across " +
               named("num_pools", num_pools);
    if (mad_width < 1)
        return named("mad_width", mad_width) + " must be at least 1";
    if (sfu_width < 1)
        return named("sfu_width", sfu_width) + " must be at least 1";
    if (lsu_width < 1)
        return named("lsu_width", lsu_width) + " must be at least 1";
    if (warp_width % sfu_width != 0)
        return named("sfu_width", sfu_width) + " must divide " +
               named("warp_width", warp_width);
    // An LSU wider than the warp serves it in one pass.
    if (lsu_width < warp_width && warp_width % lsu_width != 0)
        return named("lsu_width", lsu_width) + " must divide " +
               named("warp_width", warp_width);
    if (sbi && reconv == ReconvMode::Stack)
        return "sbi requires thread-frontier reconvergence";
    // SBI's second front-end and SWI's cascaded scheduler each
    // schedule one pool of every warp.
    if (num_pools != 1 && (sbi || swi))
        return "num_pools must be 1 with sbi or swi";
    if (split_on_memory_divergence && reconv == ReconvMode::Stack)
        return "memory splits require thread-frontier "
               "reconvergence";
    if (lookup_sets < 1 || lookup_sets > num_warps)
        return "lookup_sets out of range (1..num_warps)";
    if (mem.mshrs < 1)
        return "mshrs must be at least 1";
    if (mem.l1.block_bytes < 1 || !isPow2(mem.l1.block_bytes))
        return "l1_block_bytes must be a power of two";
    // Mirror the L1Cache constructor asserts: whole sets only
    // (division first, so no u32 product can wrap).
    u32 l1_blocks = mem.l1.size_bytes / mem.l1.block_bytes;
    if (mem.l1.ways < 1 || l1_blocks < mem.l1.ways ||
        l1_blocks % mem.l1.ways != 0)
        return "l1_size_bytes must be a whole number of sets "
               "(a multiple of l1_ways * l1_block_bytes)";
    return {};
}

void
SMConfig::validate() const
{
    std::string err = checkInvariants();
    siwi_assert(err.empty(), err);
}

std::string
SMConfig::summary() const
{
    std::ostringstream os;
    os << "warps x width:      " << num_warps << " x " << warp_width
       << "\n"
       << "scheduler pools:    " << num_pools << "\n"
       << "reconvergence:      "
       << (reconv == ReconvMode::Stack ? "stack" : "thread frontier")
       << "\n"
       << "scheduler latency:  " << (swi ? 2 : 1) << " cycle(s)\n"
       << "delivery latency:   " << delivery_latency << " cycle(s)\n"
       << "execution latency:  " << exec_latency << " cycles\n"
       << "scoreboard:         " << scoreboard_entries
       << " entries/warp\n"
       << "exec units:         " << mad_groups << "x MAD(x"
       << mad_width << "), SFU(x" << sfu_width << "), LSU(x"
       << lsu_width << ")\n"
       << "L1 cache:           " << mem.l1.size_bytes / 1024 << "K, "
       << mem.l1.ways << "-way, " << mem.l1.block_bytes
       << "B blocks, " << mem.l1.hit_latency << " cycles\n"
       << "sched policy:       "
       << frontend::schedPolicyName(sched_policy) << "\n"
       << "SBI:                " << (sbi ? "on" : "off")
       << (sbi && sbi_constraints ? " (constraints)" : "") << "\n"
       << "SWI:                " << (swi ? "on" : "off")
       << ", lookup sets " << lookup_sets << "\n"
       << "lane shuffle:       " << laneShuffleName(lane_shuffle) << "\n"
       << "memory splits:      "
       << (split_on_memory_divergence ? "on" : "off") << "\n";
    return os.str();
}

} // namespace siwi::pipeline
