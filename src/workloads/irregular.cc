/**
 * @file
 * The nine non-TMD irregular workloads of Figure 7(b).
 *
 * Each reproduces the divergence signature of its namesake: BFS's
 * data-dependent frontier expansion, Eigenvalues' balanced bisection
 * branches, Mandelbrot's escape-time loops behind a block barrier,
 * Needleman-Wunsch's growing wavefront, SortingNetworks' data-
 * dependent compare-exchanges, and so on (see docs/DESIGN.md).
 */

#include "workloads/suite.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"
#include "isa/builder.hh"

namespace siwi::workloads {

namespace {

using isa::Imm;
using isa::KernelBuilder;
using isa::Reg;
using isa::SpecialReg;

// ================================================================
// BFS: level-synchronous frontier expansion; degrees vary per node.
// ================================================================
class Bfs final : public Workload
{
  public:
    const char *name() const override { return "BFS"; }
    bool regular() const override { return false; }

    unsigned nodes(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 1024 : 128;
    }
    static constexpr unsigned max_levels = 8;

    unsigned degreeOf(unsigned i) const { return 1 + (i * 37) % 8; }
    unsigned
    edgeTo(unsigned i, unsigned j, unsigned n) const
    {
        return (i * 7 + j * 13 + 1) % n;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned n = nodes(sc);
        KernelBuilder b("bfs");
        Reg tid = b.reg();
        b.s2r(tid, SpecialReg::TID);

        Reg lvaddr = emitGtidAddr(b, tid, out_a);
        Reg rpaddr = emitGtidAddr(b, tid, in_a);
        Reg level = b.reg(), cond = b.reg();
        b.movi(level, 0);
        b.loop();
        {
            Reg mylv = b.reg(), active = b.reg();
            b.ld(mylv, lvaddr);
            b.iseteq(active, mylv, level);
            b.if_(active);
            {
                // edges [row[i], row[i+1])
                Reg e = b.reg(), eend = b.reg(), econd = b.reg();
                b.ld(e, rpaddr);
                b.ld(eend, rpaddr, 4);
                b.loop();
                {
                    Reg eaddr = b.reg(), nb = b.reg(),
                        nlv = b.reg(), unvisited = b.reg(),
                        nlvaddr = b.reg(), next = b.reg();
                    b.shl(eaddr, e, Imm(2));
                    b.iadd(eaddr, eaddr, Imm(i32(in_b)));
                    b.ld(nb, eaddr);
                    b.shl(nlvaddr, nb, Imm(2));
                    b.iadd(nlvaddr, nlvaddr, Imm(i32(out_a)));
                    b.ld(nlv, nlvaddr);
                    b.isetlt(unvisited, nlv, Imm(0));
                    b.if_(unvisited);
                    {
                        b.iadd(next, level, Imm(1));
                        b.st(nlvaddr, 0, next);
                    }
                    b.endIf();
                    b.iadd(e, e, Imm(1));
                    b.isetlt(econd, e, eend);
                }
                b.endLoopIf(econd);
            }
            b.endIf();
            b.bar();
            b.iadd(level, level, Imm(1));
            b.isetlt(cond, level, Imm(i32(max_levels)));
        }
        b.endLoopIf(cond);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = n;
        inst.grid_blocks = 1;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        const unsigned n = nodes(sc);
        unsigned off = 0;
        for (unsigned i = 0; i < n; ++i) {
            mem.write32(in_a + Addr(i) * 4, off);
            off += degreeOf(i);
        }
        mem.write32(in_a + Addr(n) * 4, off);
        unsigned e = 0;
        for (unsigned i = 0; i < n; ++i) {
            for (unsigned j = 0; j < degreeOf(i); ++j)
                mem.write32(in_b + Addr(e++) * 4, edgeTo(i, j, n));
        }
        for (unsigned i = 0; i < n; ++i)
            mem.write32(out_a + Addr(i) * 4, u32(i32(-1)));
        mem.write32(out_a, 0); // source node
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned n = nodes(sc);
        std::vector<i32> lv(n, -1);
        lv[0] = 0;
        for (unsigned level = 0; level < max_levels; ++level) {
            for (unsigned i = 0; i < n; ++i) {
                if (lv[i] != i32(level))
                    continue;
                for (unsigned j = 0; j < degreeOf(i); ++j) {
                    unsigned nb = edgeTo(i, j, n);
                    if (lv[nb] < 0)
                        lv[nb] = i32(level) + 1;
                }
            }
        }
        for (unsigned i = 0; i < n; ++i) {
            if (!checkI(mem, out_a + Addr(i) * 4, u32(lv[i]), "lv",
                        i, why)) {
                return false;
            }
        }
        return true;
    }
};

// ================================================================
// ConvolutionSeparable: fast interior path, clamped boundary path.
// ================================================================
class ConvSep final : public Workload
{
  public:
    const char *name() const override
    {
        return "ConvolutionSeparable";
    }
    bool regular() const override { return false; }

    unsigned n(SizeClass sc) const
    {
        // Chip: 128 CTAs, enough to keep a 64-SM chip busy.
        return sc == SizeClass::Chip   ? 131072
               : sc == SizeClass::Full ? 4096
                                       : 256;
    }
    static constexpr unsigned radius = 8;
    static constexpr unsigned seg = 64; //!< row length

    Instance
    instance(SizeClass sc) const override
    {
        KernelBuilder b("convsep");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);
        Reg x = b.reg();
        b.and_(x, gtid, Imm(i32(seg - 1)));

        Reg lo = b.reg(), hi = b.reg(), boundary = b.reg(),
            t = b.reg();
        b.isetlt(lo, x, Imm(i32(radius)));
        b.isetge(hi, x, Imm(i32(seg - radius)));
        b.or_(boundary, lo, hi);

        Reg acc = b.reg(), w = b.reg(), v = b.reg(),
            addr = b.reg(), idx = b.reg();
        b.fmovi(acc, 0.0f);

        Reg rowbase = b.reg();
        b.isub(rowbase, gtid, x); // row start index

        b.if_(boundary);
        {
            // Clamped taps (extra min/max work on the minority).
            Reg zero = b.reg(), maxi = b.reg();
            b.movi(zero, 0);
            b.movi(maxi, i32(seg - 1));
            for (int o = -int(radius); o <= int(radius); ++o) {
                b.iadd(idx, x, Imm(o));
                b.imax(idx, idx, zero);
                b.imin(idx, idx, maxi);
                b.iadd(t, rowbase, idx);
                b.shl(addr, t, Imm(2));
                b.iadd(addr, addr, Imm(i32(in_a)));
                b.ld(v, addr);
                b.fmovi(w, 1.0f / (1.0f + float(o < 0 ? -o : o)));
                b.fmad(acc, v, w, acc);
            }
        }
        b.else_();
        {
            for (int o = -int(radius); o <= int(radius); ++o) {
                b.iadd(idx, x, Imm(o));
                b.iadd(t, rowbase, idx);
                b.shl(addr, t, Imm(2));
                b.iadd(addr, addr, Imm(i32(in_a)));
                b.ld(v, addr);
                b.fmovi(w, 1.0f / (1.0f + float(o < 0 ? -o : o)));
                b.fmad(acc, v, w, acc);
            }
        }
        b.endIf();

        Reg oaddr = emitGtidAddr(b, gtid, out_a);
        b.st(oaddr, 0, acc);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = std::min(n(sc), 1024u);
        inst.grid_blocks = n(sc) / inst.block_threads;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        Rng rng(31);
        for (unsigned i = 0; i < n(sc); ++i)
            mem.writeF32(in_a + Addr(i) * 4, rng.uniform(-1.f, 1.f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned nn = n(sc);
        std::vector<float> in(nn);
        Rng rng(31);
        for (auto &v : in)
            v = rng.uniform(-1.f, 1.f);
        for (unsigned i = 0; i < nn; ++i) {
            unsigned x = i % seg;
            unsigned row = i - x;
            float acc = 0.0f;
            for (int o = -int(radius); o <= int(radius); ++o) {
                int idx = int(x) + o;
                idx = std::clamp(idx, 0, int(seg) - 1);
                float w = 1.0f / (1.0f + float(o < 0 ? -o : o));
                acc = in[row + unsigned(idx)] * w + acc;
            }
            if (!checkF(mem, out_a + Addr(i) * 4, acc, "conv", i,
                        why)) {
                return false;
            }
        }
        return true;
    }
};

// ================================================================
// Eigenvalues: bisection with balanced data-dependent branches.
// ================================================================
class Eigenvalues final : public Workload
{
  public:
    const char *name() const override { return "Eigenvalues"; }
    bool regular() const override { return false; }

    unsigned n(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 1024 : 128;
    }
    unsigned iters(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 16 : 6;
    }
    static constexpr unsigned diag = 8;

    Instance
    instance(SizeClass sc) const override
    {
        KernelBuilder b("eigen");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);

        // Spread the bisection intervals across [0, 24) *within*
        // each warp (scrambled by tid*5 mod 64) so the per-element
        // comparisons diverge heavily, like the eigenvalue
        // bisection kernel's per-thread intervals.
        Reg lo = b.reg(), hi = b.reg(), t = b.reg();
        Reg scramble = b.reg();
        b.imul(scramble, gtid, Imm(5));
        b.and_(scramble, scramble, Imm(63));
        b.i2f(lo, scramble);
        Reg c = b.reg();
        b.fmovi(c, 24.0f / 64.0f);
        b.fmul(lo, lo, c);
        b.fmovi(t, 12.0f);
        b.fadd(hi, lo, t);

        Reg it = b.reg(), cond = b.reg();
        b.movi(it, 0);
        b.loop();
        {
            Reg mid = b.reg(), half = b.reg(), count = b.reg(),
                j = b.reg(), jcond = b.reg();
            b.fadd(mid, lo, hi);
            b.fmovi(half, 0.5f);
            b.fmul(mid, mid, half);

            b.movi(count, 0);
            b.movi(j, 0);
            b.loop();
            {
                Reg daddr = b.reg(), dv = b.reg(), less = b.reg();
                b.shl(daddr, j, Imm(2));
                b.iadd(daddr, daddr, Imm(i32(in_a)));
                b.ld(dv, daddr);
                b.fsetlt(less, dv, mid);
                // Balanced if/else: divergence on the comparison.
                b.if_(less);
                {
                    b.iadd(count, count, Imm(1));
                }
                b.else_();
                {
                    b.iadd(count, count, Imm(-1));
                }
                b.endIf();
                b.iadd(j, j, Imm(1));
                b.isetlt(jcond, j, Imm(i32(diag)));
            }
            b.endLoopIf(jcond);

            // Each thread bisects toward a different quantile of
            // the spectrum (its own eigenvalue index), keeping the
            // intervals spread and the branches divergent.
            Reg pos = b.reg(), target = b.reg();
            b.and_(target, gtid, Imm(15));
            b.iadd(target, target, Imm(-8));
            b.isetgt(pos, count, target);
            b.if_(pos);
            {
                b.mov(hi, mid);
            }
            b.else_();
            {
                b.mov(lo, mid);
            }
            b.endIf();

            b.iadd(it, it, Imm(1));
            b.isetlt(cond, it, Imm(i32(iters(sc))));
        }
        b.endLoopIf(cond);

        Reg mid = b.reg(), half = b.reg();
        b.fadd(mid, lo, hi);
        b.fmovi(half, 0.5f);
        b.fmul(mid, mid, half);
        Reg oaddr = emitGtidAddr(b, gtid, out_a);
        b.st(oaddr, 0, mid);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = std::min(n(sc), 1024u);
        inst.grid_blocks = n(sc) / inst.block_threads;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass) const override
    {
        Rng rng(37);
        for (unsigned i = 0; i < diag; ++i)
            mem.writeF32(in_a + Addr(i) * 4, rng.uniform(0.f, 24.f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        std::vector<float> d(diag);
        Rng rng(37);
        for (auto &v : d)
            v = rng.uniform(0.f, 24.f);
        for (unsigned i = 0; i < n(sc); ++i) {
            float lo = float(i32((i * 5) & 63)) * (24.0f / 64.0f);
            float hi = lo + 12.0f;
            i32 target = i32(i & 15) - 8;
            for (unsigned it = 0; it < iters(sc); ++it) {
                float mid = (lo + hi) * 0.5f;
                i32 count = 0;
                for (unsigned j = 0; j < diag; ++j)
                    count += d[j] < mid ? 1 : -1;
                if (count > target)
                    hi = mid;
                else
                    lo = mid;
            }
            float mid = (lo + hi) * 0.5f;
            if (!checkF(mem, out_a + Addr(i) * 4, mid, "eig", i,
                        why)) {
                return false;
            }
        }
        return true;
    }
};

// ================================================================
// Histogram: per-thread register bins selected by a data-dependent
// branch chain.
//
// The SDK kernel keeps per-warp histograms in shared memory, which
// this ISA does not model; binning into registers through a chain
// of minority-taken ifs reproduces the same divergence signature
// (rare, data-dependent branch paths) without inventing off-chip
// traffic the original never had.
// ================================================================
class Histogram final : public Workload
{
  public:
    const char *name() const override { return "Histogram"; }
    bool regular() const override { return false; }

    unsigned threads(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 1024 : 128;
    }
    unsigned items(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 24 : 6;
    }
    static constexpr unsigned bins = 8;

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned per = items(sc);
        KernelBuilder b("histogram");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);

        Reg daddr = b.reg();
        // Coalesced streaming: item k of thread t at data[k*T + t].
        b.shl(daddr, gtid, Imm(2));
        b.iadd(daddr, daddr, Imm(i32(in_a)));

        Reg count[bins];
        for (unsigned i = 0; i < bins; ++i) {
            count[i] = b.reg();
            b.movi(count[i], 0);
        }

        Reg k = b.reg(), cond = b.reg(), v = b.reg(),
            bin = b.reg(), hit = b.reg();
        b.movi(k, 0);
        b.loop();
        {
            b.ld(v, daddr);
            b.and_(bin, v, Imm(i32(bins - 1)));
            // Minority-taken if per bin: the paper's histogram
            // divergence pattern.
            for (unsigned i = 0; i < bins; ++i) {
                b.iseteq(hit, bin, Imm(i32(i)));
                b.if_(hit);
                b.iadd(count[i], count[i], Imm(1));
                b.endIf();
            }
            b.iadd(daddr, daddr, Imm(i32(threads(sc) * 4)));
            b.iadd(k, k, Imm(1));
            b.isetlt(cond, k, Imm(i32(per)));
        }
        b.endLoopIf(cond);

        Reg hbase = b.reg();
        b.imul(hbase, gtid, Imm(i32(bins * 4)));
        b.iadd(hbase, hbase, Imm(i32(out_a)));
        for (unsigned i = 0; i < bins; ++i)
            b.st(hbase, i32(i * 4), count[i]);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = std::min(threads(sc), 1024u);
        inst.grid_blocks = threads(sc) / inst.block_threads;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        Rng rng(41);
        for (unsigned i = 0; i < threads(sc) * items(sc); ++i)
            mem.write32(in_a + Addr(i) * 4, u32(rng.next()));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        Rng rng(41);
        const unsigned per = items(sc);
        const unsigned t_count = threads(sc);
        std::vector<u32> data(t_count * per);
        for (auto &v : data)
            v = u32(rng.next());
        for (unsigned t = 0; t < t_count; ++t) {
            std::vector<u32> hist(bins, 0);
            for (unsigned k = 0; k < per; ++k)
                hist[data[k * t_count + t] % bins] += 1;
            for (unsigned bin = 0; bin < bins; ++bin) {
                if (!checkI(mem,
                            out_a + Addr(t) * bins * 4 +
                                Addr(bin) * 4,
                            hist[bin], "hist", t * bins + bin,
                            why)) {
                    return false;
                }
            }
        }
        return true;
    }
};

// ================================================================
// LUD (forward-substitution phase): shrinking tid-correlated work.
// ================================================================
class Lud final : public Workload
{
  public:
    const char *name() const override { return "LUD"; }
    bool regular() const override { return false; }

    unsigned n(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 1024 : 128;
    }
    unsigned steps(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 48 : 12;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned nn = n(sc);
        KernelBuilder b("lud");
        Reg tid = b.reg();
        b.s2r(tid, SpecialReg::TID);

        Reg xaddr = emitGtidAddr(b, tid, out_a);
        Reg x = b.reg();
        b.ld(x, xaddr);

        Reg k = b.reg(), cond = b.reg();
        b.movi(k, 0);
        b.loop();
        {
            Reg active = b.reg();
            b.isetgt(active, tid, k);
            b.if_(active);
            {
                // x[tid] -= M[k][tid] * x[k]
                Reg maddr = b.reg(), mv = b.reg(), xkaddr = b.reg(),
                    xk = b.reg(), prod = b.reg();
                b.imul(maddr, k, Imm(i32(nn * 4)));
                b.iadd(maddr, maddr, xaddr);
                b.isub(maddr, maddr, Imm(i32(out_a)));
                b.iadd(maddr, maddr, Imm(i32(in_a)));
                b.ld(mv, maddr);
                b.shl(xkaddr, k, Imm(2));
                b.iadd(xkaddr, xkaddr, Imm(i32(out_a)));
                b.ld(xk, xkaddr);
                b.fmul(prod, mv, xk);
                b.fsub(x, x, prod);
                b.st(xaddr, 0, x);
            }
            b.endIf();
            b.bar();
            b.iadd(k, k, Imm(1));
            b.isetlt(cond, k, Imm(i32(steps(sc))));
        }
        b.endLoopIf(cond);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = nn;
        inst.grid_blocks = 1;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        const unsigned nn = n(sc);
        Rng rng(43);
        for (unsigned k = 0; k < steps(sc); ++k) {
            for (unsigned i = 0; i < nn; ++i) {
                mem.writeF32(in_a + Addr(k * nn + i) * 4,
                             rng.uniform(-0.01f, 0.01f));
            }
        }
        for (unsigned i = 0; i < nn; ++i)
            mem.writeF32(out_a + Addr(i) * 4, rng.uniform(-1.f, 1.f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned nn = n(sc);
        Rng rng(43);
        std::vector<float> m(steps(sc) * nn);
        for (auto &v : m)
            v = rng.uniform(-0.01f, 0.01f);
        std::vector<float> x(nn);
        for (auto &v : x)
            v = rng.uniform(-1.f, 1.f);
        for (unsigned k = 0; k < steps(sc); ++k) {
            std::vector<float> nx = x;
            for (unsigned t = k + 1; t < nn; ++t)
                nx[t] = x[t] - m[k * nn + t] * x[k];
            x = nx;
        }
        for (unsigned i = 0; i < nn; ++i) {
            if (!checkF(mem, out_a + Addr(i) * 4, x[i], "lud", i,
                        why)) {
                return false;
            }
        }
        return true;
    }
};

// ================================================================
// Mandelbrot: escape-time loops, block barrier per row.
// ================================================================
class Mandelbrot final : public Workload
{
  public:
    const char *name() const override { return "Mandelbrot"; }
    bool regular() const override { return false; }

    unsigned width(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 1024 : 128;
    }
    unsigned rows(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 8 : 2;
    }
    static constexpr unsigned max_iter = 24;

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned w = width(sc);
        KernelBuilder b("mandelbrot");
        Reg tid = b.reg();
        b.s2r(tid, SpecialReg::TID);

        Reg cre = b.reg(), scale = b.reg(), off = b.reg();
        b.i2f(cre, tid);
        b.fmovi(scale, 3.0f / float(w));
        b.fmul(cre, cre, scale);
        b.fmovi(off, -2.0f);
        b.fadd(cre, cre, off);

        Reg row = b.reg(), rcond = b.reg();
        b.movi(row, 0);
        b.loop();
        {
            Reg cim = b.reg(), rscale = b.reg(), roff = b.reg();
            b.i2f(cim, row);
            b.fmovi(rscale, 2.0f / float(rows(sc)));
            b.fmul(cim, cim, rscale);
            b.fmovi(roff, -1.0f);
            b.fadd(cim, cim, roff);

            Reg zr = b.reg(), zi = b.reg(), it = b.reg(),
                icond = b.reg(), zr2 = b.reg(), zi2 = b.reg(),
                mag = b.reg(), esc = b.reg(), t = b.reg(),
                four = b.reg(), two = b.reg();
            b.fmovi(zr, 0.0f);
            b.fmovi(zi, 0.0f);
            b.fmovi(four, 4.0f);
            b.fmovi(two, 2.0f);
            b.movi(it, 0);
            b.loop();
            {
                b.fmul(zr2, zr, zr);
                b.fmul(zi2, zi, zi);
                b.fadd(mag, zr2, zi2);
                b.fsetgt(esc, mag, four);
                b.breakIf(esc);
                // z = z^2 + c
                b.fmul(t, zr, zi);
                b.fsub(zr, zr2, zi2);
                b.fadd(zr, zr, cre);
                b.fmad(zi, t, two, cim);
                b.iadd(it, it, Imm(1));
                b.isetlt(icond, it, Imm(i32(max_iter)));
            }
            b.endLoopIf(icond);

            Reg idx = b.reg(), oaddr = b.reg();
            b.imul(idx, row, Imm(i32(w)));
            b.iadd(idx, idx, tid);
            b.shl(oaddr, idx, Imm(2));
            b.iadd(oaddr, oaddr, Imm(i32(out_a)));
            b.st(oaddr, 0, it);

            // The thread-block barrier the paper calls out: it
            // prevents warp-splits from running ahead across rows.
            b.bar();
            b.iadd(row, row, Imm(1));
            b.isetlt(rcond, row, Imm(i32(rows(sc))));
        }
        b.endLoopIf(rcond);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = w;
        inst.grid_blocks = 1;
        return inst;
    }

    void
    init(mem::MemoryImage &, SizeClass) const override
    {
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned w = width(sc);
        for (unsigned row = 0; row < rows(sc); ++row) {
            float cim =
                float(i32(row)) * (2.0f / float(rows(sc))) - 1.0f;
            for (unsigned x = 0; x < w; ++x) {
                float cre =
                    float(i32(x)) * (3.0f / float(w)) - 2.0f;
                float zr = 0.f, zi = 0.f;
                u32 it = 0;
                while (true) {
                    float zr2 = zr * zr, zi2 = zi * zi;
                    if (zr2 + zi2 > 4.0f)
                        break;
                    float t = zr * zi;
                    zr = zr2 - zi2 + cre;
                    zi = t * 2.0f + cim;
                    ++it;
                    if (it >= max_iter)
                        break;
                }
                if (!checkI(mem, out_a + Addr(row * w + x) * 4, it,
                            "mandel", row * w + x, why)) {
                    return false;
                }
            }
        }
        return true;
    }
};

// ================================================================
// Needleman-Wunsch: anti-diagonal wavefront, growing active set.
// ================================================================
class NeedlemanWunsch final : public Workload
{
  public:
    const char *name() const override { return "Needleman-Wunsch"; }
    bool regular() const override { return false; }

    unsigned dim(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 128 : 32;
    }
    unsigned blocks(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 4 : 1;
    }

    // Each block aligns its own pair of sequences. The score matrix
    // is stored diagonal-major -- cell (i, j) lives at
    // (diag = i + j, pos = i) -- the standard GPU layout that makes
    // the wavefront's loads and stores coalesced.
    Addr
    hAddr(unsigned blk, unsigned i, unsigned j, unsigned n) const
    {
        unsigned diag = i + j, pos = i;
        return out_a +
               (Addr(blk) * (2 * n + 1) * (n + 1) +
                Addr(diag * (n + 1) + pos)) *
                   4;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned n = dim(sc);
        KernelBuilder b("nw");
        Reg tid = b.reg(), cta = b.reg(), hbase = b.reg(),
            abase = b.reg(), bbase = b.reg();
        b.s2r(tid, SpecialReg::TID);
        b.s2r(cta, SpecialReg::CTAID);
        b.imul(hbase, cta, Imm(i32((2 * n + 1) * (n + 1) * 4)));
        b.iadd(hbase, hbase, Imm(i32(out_a)));
        b.imul(abase, cta, Imm(i32(n * 4)));
        b.iadd(bbase, abase, Imm(i32(in_b)));
        b.iadd(abase, abase, Imm(i32(in_a)));

        Reg d = b.reg(), dcond = b.reg();
        b.movi(d, 0);
        b.loop();
        {
            // i = tid+1, j = d - tid + 1 ; active if 0<=d-tid<n
            Reg j0 = b.reg(), active = b.reg(), t = b.reg();
            b.isub(j0, d, tid);
            b.isetge(active, j0, Imm(0));
            b.isetlt(t, j0, Imm(i32(n)));
            b.and_(active, active, t);
            b.if_(active);
            {
                // Diagonal-major addressing: for the cell (i, j) =
                // (tid+1, j0+1) on interior diagonal d, the north /
                // west neighbors sit at (diag d+1, pos tid / tid+1)
                // of the previous wavefront, the diagonal neighbor
                // at (d, tid) -- all coalesced in tid.
                auto diagAddr = [&](Reg pos, i32 diag_off,
                                    i32 pos_off, Reg dst, Reg dd) {
                    Reg idx = b.reg();
                    b.iadd(idx, dd, Imm(diag_off));
                    b.imul(idx, idx, Imm(i32(n + 1)));
                    b.iadd(idx, idx, pos);
                    b.iadd(idx, idx, Imm(pos_off));
                    b.shl(dst, idx, Imm(2));
                    b.iadd(dst, dst, hbase);
                };

                Reg an = b.reg(), aw = b.reg(), ad = b.reg(),
                    vn = b.reg(), vw = b.reg(), vd = b.reg();
                diagAddr(tid, 1, 0, an, d);
                diagAddr(tid, 1, 1, aw, d);
                diagAddr(tid, 0, 0, ad, d);
                b.ld(vn, an);
                b.ld(vw, aw);
                b.ld(vd, ad);

                // score: +2 match / -1 mismatch via sequences
                Reg sa = b.reg(), sb_ = b.reg(), av = b.reg(),
                    bv = b.reg(), eq = b.reg(), sc_ = b.reg(),
                    m2 = b.reg(), m1 = b.reg();
                b.shl(sa, tid, Imm(2));
                b.iadd(sa, sa, abase);
                b.shl(sb_, j0, Imm(2));
                b.iadd(sb_, sb_, bbase);
                b.ld(av, sa);
                b.ld(bv, sb_);
                b.iseteq(eq, av, bv);
                b.movi(m2, 2);
                b.movi(m1, -1);
                b.sel(sc_, eq, m2, m1);

                Reg best = b.reg(), gap = b.reg();
                b.movi(gap, -1);
                b.iadd(vn, vn, gap);
                b.iadd(vw, vw, gap);
                b.iadd(vd, vd, sc_);
                b.imax(best, vn, vw);
                b.imax(best, best, vd);

                Reg out = b.reg();
                diagAddr(tid, 2, 1, out, d);
                b.st(out, 0, best);
            }
            b.endIf();
            b.bar();
            b.iadd(d, d, Imm(1));
            b.isetlt(dcond, d, Imm(i32(2 * n - 1)));
        }
        b.endLoopIf(dcond);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = n;
        inst.grid_blocks = blocks(sc);
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        const unsigned n = dim(sc);
        Rng rng(47);
        for (unsigned blk = 0; blk < blocks(sc); ++blk) {
            for (unsigned i = 0; i < n; ++i) {
                mem.write32(in_a + Addr(blk * n + i) * 4,
                            u32(rng.below(4)));
                mem.write32(in_b + Addr(blk * n + i) * 4,
                            u32(rng.below(4)));
            }
            for (unsigned i = 0; i <= n; ++i) {
                mem.write32(hAddr(blk, i, 0, n), u32(-i32(i)));
                mem.write32(hAddr(blk, 0, i, n), u32(-i32(i)));
            }
        }
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned n = dim(sc);
        Rng rng(47);
        for (unsigned blk = 0; blk < blocks(sc); ++blk) {
            std::vector<u32> a(n), bseq(n);
            for (unsigned i = 0; i < n; ++i) {
                a[i] = u32(rng.below(4));
                bseq[i] = u32(rng.below(4));
            }
            std::vector<i32> h((n + 1) * (n + 1));
            for (unsigned i = 0; i <= n; ++i) {
                h[i * (n + 1)] = -i32(i);
                h[i] = -i32(i);
            }
            for (unsigned i = 1; i <= n; ++i) {
                for (unsigned j = 1; j <= n; ++j) {
                    i32 sc_ = a[i - 1] == bseq[j - 1] ? 2 : -1;
                    i32 best = std::max(
                        {h[(i - 1) * (n + 1) + j] - 1,
                         h[i * (n + 1) + j - 1] - 1,
                         h[(i - 1) * (n + 1) + j - 1] + sc_});
                    h[i * (n + 1) + j] = best;
                }
            }
            for (unsigned i = 1; i <= n; ++i) {
                for (unsigned j = 1; j <= n; ++j) {
                    if (!checkI(mem, hAddr(blk, i, j, n),
                                u32(h[i * (n + 1) + j]), "nw",
                                i * (n + 1) + j, why)) {
                        return false;
                    }
                }
            }
        }
        return true;
    }
};

// ================================================================
// SortingNetworks: bitonic sort, data-dependent swaps per stage.
// ================================================================
class SortingNetworks final : public Workload
{
  public:
    const char *name() const override { return "SortingNetworks"; }
    bool regular() const override { return false; }

    unsigned elems(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 2048 : 256;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned n = elems(sc);
        KernelBuilder b("bitonic");
        Reg tid = b.reg();
        b.s2r(tid, SpecialReg::TID);

        Reg k = b.reg(), kcond = b.reg();
        b.movi(k, 2);
        b.loop();
        {
            Reg j = b.reg(), jcond = b.reg();
            b.shr(j, k, Imm(1));
            b.loop();
            {
                // idx = 2*tid - (tid & (j-1)); partner = idx + j
                Reg jm = b.reg(), idx = b.reg(), t2 = b.reg(),
                    partner = b.reg();
                b.iadd(jm, j, Imm(-1));
                b.and_(jm, tid, jm);
                b.shl(t2, tid, Imm(1));
                b.isub(idx, t2, jm);
                b.iadd(partner, idx, j);

                // ascending if (idx & k) == 0
                Reg dir = b.reg();
                b.and_(dir, idx, k);
                b.iseteq(dir, dir, Imm(0));

                Reg a0 = b.reg(), a1 = b.reg(), va = b.reg(),
                    vb = b.reg();
                b.shl(a0, idx, Imm(2));
                b.iadd(a0, a0, Imm(i32(out_a)));
                b.shl(a1, partner, Imm(2));
                b.iadd(a1, a1, Imm(i32(out_a)));
                b.ld(va, a0);
                b.ld(vb, a1);

                // swap if (va > vb) == dir
                Reg gt = b.reg(), swap = b.reg();
                b.isetgt(gt, va, vb);
                b.iseteq(swap, gt, dir);
                b.if_(swap);
                {
                    b.st(a0, 0, vb);
                    b.st(a1, 0, va);
                }
                b.endIf();
                b.bar();
                b.shr(j, j, Imm(1));
                b.isetgt(jcond, j, Imm(0));
            }
            b.endLoopIf(jcond);
            b.shl(k, k, Imm(1));
            b.isetle(kcond, k, Imm(i32(n)));
        }
        b.endLoopIf(kcond);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = n / 2;
        inst.grid_blocks = 1;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        Rng rng(53);
        for (unsigned i = 0; i < elems(sc); ++i)
            mem.write32(out_a + Addr(i) * 4,
                        u32(rng.below(1u << 30)));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned n = elems(sc);
        Rng rng(53);
        std::vector<u32> v(n);
        for (auto &x : v)
            x = u32(rng.below(1u << 30));
        std::sort(v.begin(), v.end());
        for (unsigned i = 0; i < n; ++i) {
            if (!checkI(mem, out_a + Addr(i) * 4, v[i], "sort", i,
                        why)) {
                return false;
            }
        }
        return true;
    }
};

// ================================================================
// SRAD: diffusion coefficient with balanced branch on gradient.
// ================================================================
class Srad final : public Workload
{
  public:
    const char *name() const override { return "SRAD"; }
    bool regular() const override { return false; }

    unsigned dim(SizeClass sc) const
    {
        // Chip: 256x256 image = 64 CTAs of 1024 threads.
        return sc == SizeClass::Chip   ? 256
               : sc == SizeClass::Full ? 64
                                       : 16;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned n = dim(sc);
        KernelBuilder b("srad");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);
        Reg x = b.reg(), y = b.reg();
        b.and_(x, gtid, Imm(i32(n - 1)));
        b.shr(y, gtid, Imm(i32(std::countr_zero(n))));

        Reg zero = b.reg(), maxi = b.reg();
        b.movi(zero, 0);
        b.movi(maxi, i32(n - 1));

        auto loadAt = [&](Reg xx, Reg yy, Reg dst) {
            Reg idx = b.reg(), addr = b.reg();
            b.imul(idx, yy, Imm(i32(n)));
            b.iadd(idx, idx, xx);
            b.shl(addr, idx, Imm(2));
            b.iadd(addr, addr, Imm(i32(in_a)));
            b.ld(dst, addr);
        };

        Reg xm = b.reg(), xp = b.reg(), ym = b.reg(), yp = b.reg();
        b.iadd(xm, x, Imm(-1));
        b.imax(xm, xm, zero);
        b.iadd(xp, x, Imm(1));
        b.imin(xp, xp, maxi);
        b.iadd(ym, y, Imm(-1));
        b.imax(ym, ym, zero);
        b.iadd(yp, y, Imm(1));
        b.imin(yp, yp, maxi);

        Reg c = b.reg(), l = b.reg(), r = b.reg(), u = b.reg(),
            d = b.reg();
        loadAt(x, y, c);
        loadAt(xm, y, l);
        loadAt(xp, y, r);
        loadAt(x, ym, u);
        loadAt(x, yp, d);

        // gradient magnitude ~ sum of squared differences
        Reg g = b.reg(), t = b.reg();
        b.fsub(t, l, c);
        b.fmul(g, t, t);
        b.fsub(t, r, c);
        b.fmad(g, t, t, g);
        b.fsub(t, u, c);
        b.fmad(g, t, t, g);
        b.fsub(t, d, c);
        b.fmad(g, t, t, g);

        // Smooth region: SFU-based coefficient; edge region: MAD
        // polynomial fallback -- a balanced branch whose two paths
        // exercise *different* unit classes, so SBI can overlap
        // them on distinct groups.
        Reg thresh = b.reg(), lt = b.reg(), coeff = b.reg();
        b.fmovi(thresh, 0.5f);
        b.fsetlt(lt, g, thresh);
        b.if_(lt);
        {
            Reg one = b.reg();
            b.fmovi(one, 1.0f);
            b.fadd(coeff, g, one);
            b.rcp(coeff, coeff);
        }
        b.else_();
        {
            Reg half = b.reg(), eighth = b.reg(), one = b.reg();
            b.fmovi(half, -0.5f);
            b.fmovi(eighth, 0.125f);
            b.fmovi(one, 1.0f);
            b.fmul(coeff, g, eighth);
            b.fmad(coeff, coeff, g, one);
            b.fmad(coeff, g, half, coeff);
            b.fabs_(coeff, coeff);
        }
        b.endIf();

        Reg out = b.reg();
        b.fmul(out, coeff, c);
        Reg oaddr = emitGtidAddr(b, gtid, out_a);
        b.st(oaddr, 0, out);

        Instance inst;
        inst.raw = b.build();
        unsigned total = n * n;
        inst.block_threads = std::min(total, 1024u);
        inst.grid_blocks = total / inst.block_threads;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        const unsigned n = dim(sc);
        Rng rng(59);
        for (unsigned i = 0; i < n * n; ++i)
            mem.writeF32(in_a + Addr(i) * 4, rng.uniform(0.f, 1.5f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned n = dim(sc);
        std::vector<float> img(n * n);
        Rng rng(59);
        for (auto &v : img)
            v = rng.uniform(0.f, 1.5f);
        auto at = [&](int xx, int yy) {
            xx = std::clamp(xx, 0, int(n) - 1);
            yy = std::clamp(yy, 0, int(n) - 1);
            return img[size_t(yy) * n + size_t(xx)];
        };
        for (unsigned y = 0; y < n; ++y) {
            for (unsigned x = 0; x < n; ++x) {
                float c = at(int(x), int(y));
                float g = 0.f, t;
                t = at(int(x) - 1, int(y)) - c;
                g = t * t;
                t = at(int(x) + 1, int(y)) - c;
                g = t * t + g;
                t = at(int(x), int(y) - 1) - c;
                g = t * t + g;
                t = at(int(x), int(y) + 1) - c;
                g = t * t + g;
                float coeff;
                if (g < 0.5f) {
                    coeff = 1.0f / (g + 1.0f);
                } else {
                    coeff = g * 0.125f;
                    coeff = coeff * g + 1.0f;
                    coeff = g * -0.5f + coeff;
                    coeff = std::fabs(coeff);
                }
                float out = coeff * c;
                if (!checkF(mem, out_a + Addr(y * n + x) * 4, out,
                            "srad", y * n + x, why)) {
                    return false;
                }
            }
        }
        return true;
    }
};

} // namespace

std::vector<const Workload *>
irregularSuite()
{
    static const Bfs bfs;
    static const ConvSep conv;
    static const Eigenvalues eig;
    static const Histogram hist;
    static const Lud lud;
    static const Mandelbrot mandel;
    static const NeedlemanWunsch nw;
    static const SortingNetworks sort;
    static const Srad srad;
    return {&bfs, &conv, &eig, &hist, &lud, &mandel, &nw, &sort,
            &srad};
}

} // namespace siwi::workloads
