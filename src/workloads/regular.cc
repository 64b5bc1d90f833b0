/**
 * @file
 * The ten regular workloads of Figure 7(a).
 *
 * "Regular" per the paper: average IPC with 64-wide warps above 30 --
 * little or no branch divergence. Each kernel mirrors the arithmetic
 * and memory signature of its namesake (see docs/DESIGN.md).
 */

#include "workloads/suite.hh"

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
// BlackScholes: pure streaming float arithmetic with SFU calls.
// ================================================================
class BlackScholes final : public Workload
{
  public:
    const char *name() const override { return "BlackScholes"; }
    bool regular() const override { return true; }

    unsigned n(SizeClass sc) const
    {
        // Chip: 128 CTAs, enough to keep a 64-SM chip busy.
        return sc == SizeClass::Chip   ? 131072
               : sc == SizeClass::Full ? 4096
                                       : 256;
    }

    Instance
    instance(SizeClass sc) const override
    {
        KernelBuilder b("blackscholes");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);
        Reg sa = emitGtidAddr(b, gtid, in_a);
        Reg ka = emitGtidAddr(b, gtid, in_b);
        Reg s = b.reg(), k = b.reg();
        b.ld(s, sa);
        b.ld(k, ka);

        Reg ratio = b.reg(), d1 = b.reg();
        b.rcp(ratio, k);
        b.fmul(ratio, s, ratio); // s/k
        b.log2_(d1, ratio);
        Reg half = b.reg();
        b.fmovi(half, 0.75f);
        b.fmad(d1, d1, half, half); // d1 = log2(s/k)*0.75 + 0.75

        // cdf(x) ~ 1 / (1 + exp2(-1.5 x))
        Reg cdf = b.reg(), e = b.reg(), c15 = b.reg(), one = b.reg();
        b.fmovi(c15, -1.5f);
        b.fmovi(one, 1.0f);
        b.fmul(e, d1, c15);
        b.exp2_(e, e);
        b.fadd(e, e, one);
        b.rcp(cdf, e);

        // call = s*cdf - k*(cdf*0.8); put = call - s + k
        Reg call = b.reg(), put = b.reg(), kc = b.reg(),
            c08 = b.reg();
        b.fmovi(c08, 0.8f);
        b.fmul(kc, cdf, c08);
        b.fmul(kc, k, kc);
        b.fmul(call, s, cdf);
        b.fsub(call, call, kc);
        b.fsub(put, call, s);
        b.fadd(put, put, k);

        Reg oa = emitGtidAddr(b, gtid, out_a);
        Reg ob = emitGtidAddr(b, gtid, out_b);
        b.st(oa, 0, call);
        b.st(ob, 0, put);

        Instance inst;
        inst.raw = b.build();
        inst.grid_blocks = n(sc) / std::min(n(sc), 1024u);
        inst.block_threads = std::min(n(sc), 1024u);
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        Rng rng(42);
        for (unsigned i = 0; i < n(sc); ++i) {
            mem.writeF32(in_a + Addr(i) * 4, rng.uniform(5.f, 30.f));
            mem.writeF32(in_b + Addr(i) * 4, rng.uniform(1.f, 100.f));
        }
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        Rng rng(42);
        for (unsigned i = 0; i < n(sc); ++i) {
            float s = rng.uniform(5.f, 30.f);
            float k = rng.uniform(1.f, 100.f);
            float ratio = s * (1.0f / k);
            float d1 = std::log2(ratio) * 0.75f + 0.75f;
            float e = std::exp2(d1 * -1.5f) + 1.0f;
            float cdf = 1.0f / e;
            float call = s * cdf - k * (cdf * 0.8f);
            float put = call - s + k;
            if (!checkF(mem, out_a + Addr(i) * 4, call, "call", i,
                        why) ||
                !checkF(mem, out_b + Addr(i) * 4, put, "put", i,
                        why)) {
                return false;
            }
        }
        return true;
    }
};

// ================================================================
// MatrixMul: tiled dense GEMM slice; broadcast + coalesced loads.
// ================================================================
class MatrixMul final : public Workload
{
  public:
    const char *name() const override { return "MatrixMul"; }
    bool regular() const override { return true; }

    unsigned dim(SizeClass sc) const
    {
        // Chip: 256x256 output = 64 CTAs of 1024 threads.
        return sc == SizeClass::Chip   ? 256
               : sc == SizeClass::Full ? 64
                                       : 16;
    }
    static constexpr unsigned kdim = 16;

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned n = dim(sc);
        KernelBuilder b("matrixmul");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);
        Reg r = b.reg(), c = b.reg();
        b.shr(r, gtid, Imm(i32(std::countr_zero(n))));
        b.and_(c, gtid, Imm(i32(n - 1)));

        // acc = sum_k A[r*kdim+k] * B[k*n+c]
        Reg acc = b.reg(), k = b.reg(), aaddr = b.reg(),
            baddr = b.reg(), av = b.reg(), bv = b.reg();
        b.fmovi(acc, 0.0f);
        b.movi(k, 0);
        // aaddr = in_a + (r*kdim)*4 ; baddr = in_b + c*4
        b.imul(aaddr, r, Imm(i32(kdim * 4)));
        b.iadd(aaddr, aaddr, Imm(i32(in_a)));
        b.shl(baddr, c, Imm(2));
        b.iadd(baddr, baddr, Imm(i32(in_b)));

        Reg cond = b.reg();
        b.loop();
        {
            b.ld(av, aaddr);
            b.ld(bv, baddr);
            b.fmad(acc, av, bv, acc);
            b.iadd(aaddr, aaddr, Imm(4));
            b.iadd(baddr, baddr, Imm(i32(n * 4)));
            b.iadd(k, k, Imm(1));
            b.isetlt(cond, k, Imm(i32(kdim)));
        }
        b.endLoopIf(cond);

        Reg oaddr = emitGtidAddr(b, gtid, out_a);
        b.st(oaddr, 0, acc);

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
        Rng rng(7);
        for (unsigned i = 0; i < n * kdim; ++i)
            mem.writeF32(in_a + Addr(i) * 4, rng.uniform(-1.f, 1.f));
        for (unsigned i = 0; i < kdim * n; ++i)
            mem.writeF32(in_b + Addr(i) * 4, rng.uniform(-1.f, 1.f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned n = dim(sc);
        std::vector<float> a(n * kdim), bm(kdim * n);
        Rng rng(7);
        for (auto &v : a)
            v = rng.uniform(-1.f, 1.f);
        for (auto &v : bm)
            v = rng.uniform(-1.f, 1.f);
        for (unsigned r = 0; r < n; ++r) {
            for (unsigned c = 0; c < n; ++c) {
                float acc = 0.0f;
                for (unsigned k = 0; k < kdim; ++k)
                    acc = a[r * kdim + k] * bm[k * n + c] + acc;
                if (!checkF(mem, out_a + Addr(r * n + c) * 4, acc,
                            "C", r * n + c, why)) {
                    return false;
                }
            }
        }
        return true;
    }
};

// ================================================================
// Transpose: coalesced loads, maximally strided stores (LSU-bound).
// ================================================================
class Transpose final : public Workload
{
  public:
    const char *name() const override { return "Transpose"; }
    bool regular() const override { return true; }

    unsigned dim(SizeClass sc) const
    {
        // Chip: 256x256 matrix = 64 CTAs of 1024 threads.
        return sc == SizeClass::Chip   ? 256
               : sc == SizeClass::Full ? 64
                                       : 16;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned n = dim(sc);
        KernelBuilder b("transpose");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);
        Reg x = b.reg(), y = b.reg();
        b.and_(x, gtid, Imm(i32(n - 1)));
        b.shr(y, gtid, Imm(i32(std::countr_zero(n))));

        Reg iaddr = emitGtidAddr(b, gtid, in_a);
        Reg v = b.reg();
        b.ld(v, iaddr);

        Reg oaddr = b.reg(), t = b.reg();
        b.imul(oaddr, x, Imm(i32(n * 4)));
        b.shl(t, y, Imm(2));
        b.iadd(oaddr, oaddr, t);
        b.iadd(oaddr, oaddr, Imm(i32(out_a)));
        b.st(oaddr, 0, v);

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
        for (unsigned i = 0; i < n * n; ++i)
            mem.write32(in_a + Addr(i) * 4, i * 2654435761u);
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned n = dim(sc);
        for (unsigned y = 0; y < n; ++y) {
            for (unsigned x = 0; x < n; ++x) {
                u32 expect = (y * n + x) * 2654435761u;
                if (!checkI(mem, out_a + Addr(x * n + y) * 4, expect,
                            "T", x * n + y, why)) {
                    return false;
                }
            }
        }
        return true;
    }
};

// ================================================================
// 3DFD: finite-difference stencil, branchless clamped halo.
// ================================================================
class Fd3d final : public Workload
{
  public:
    const char *name() const override { return "3DFD"; }
    bool regular() const override { return true; }

    unsigned n(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 4096 : 256;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned nn = n(sc);
        KernelBuilder b("fd3d");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);

        Reg zero = b.reg(), maxi = b.reg();
        b.movi(zero, 0);
        b.movi(maxi, i32(nn - 1));

        Reg acc = b.reg(), idx = b.reg(), addr = b.reg(),
            v = b.reg(), w = b.reg();
        b.fmovi(acc, 0.0f);
        const float weights[5] = {0.1f, 0.2f, 0.4f, 0.2f, 0.1f};
        for (int off = -2; off <= 2; ++off) {
            b.iadd(idx, gtid, Imm(off));
            b.imax(idx, idx, zero);
            b.imin(idx, idx, maxi);
            b.shl(addr, idx, Imm(2));
            b.iadd(addr, addr, Imm(i32(in_a)));
            b.ld(v, addr);
            b.fmovi(w, weights[off + 2]);
            b.fmad(acc, v, w, acc);
        }
        Reg oaddr = emitGtidAddr(b, gtid, out_a);
        b.st(oaddr, 0, acc);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = std::min(nn, 1024u);
        inst.grid_blocks = nn / inst.block_threads;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        Rng rng(11);
        for (unsigned i = 0; i < n(sc); ++i)
            mem.writeF32(in_a + Addr(i) * 4, rng.uniform(-2.f, 2.f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned nn = n(sc);
        std::vector<float> in(nn);
        Rng rng(11);
        for (auto &v : in)
            v = rng.uniform(-2.f, 2.f);
        const float weights[5] = {0.1f, 0.2f, 0.4f, 0.2f, 0.1f};
        for (unsigned i = 0; i < nn; ++i) {
            float acc = 0.0f;
            for (int off = -2; off <= 2; ++off) {
                int idx = std::clamp<int>(int(i) + off, 0,
                                          int(nn) - 1);
                acc = in[size_t(idx)] * weights[off + 2] + acc;
            }
            if (!checkF(mem, out_a + Addr(i) * 4, acc, "fd", i, why))
                return false;
        }
        return true;
    }
};

// ================================================================
// BinomialOptions: compute-bound uniform per-thread iteration.
// ================================================================
class BinomialOptions final : public Workload
{
  public:
    const char *name() const override { return "BinomialOptions"; }
    bool regular() const override { return true; }

    unsigned n(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 2048 : 256;
    }
    unsigned steps(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 32 : 8;
    }

    Instance
    instance(SizeClass sc) const override
    {
        KernelBuilder b("binomial");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);
        Reg iaddr = emitGtidAddr(b, gtid, in_a);
        Reg s = b.reg();
        b.ld(s, iaddr);

        Reg v = b.reg(), scale = b.reg();
        b.fmovi(scale, 0.03125f);
        b.fmul(v, s, scale);
        b.exp2_(v, v);

        // Two independent recombination chains (the real kernel
        // walks many independent tree nodes per thread).
        Reg w = b.reg(), up = b.reg(), down = b.reg(), k = b.reg(),
            cond = b.reg();
        b.fmul(w, s, scale);
        b.fmovi(up, 1.01f);
        b.fmovi(down, 0.02f);
        b.movi(k, 0);
        b.loop();
        {
            b.fmad(v, v, up, down);
            b.fmad(w, w, down, up);
            b.fmul(v, v, scale);
            b.fmul(w, w, scale);
            b.fmad(v, v, up, down);
            b.fmad(w, w, up, down);
            b.iadd(k, k, Imm(1));
            b.isetlt(cond, k, Imm(i32(steps(sc))));
        }
        b.endLoopIf(cond);
        b.fadd(v, v, w);

        Reg oaddr = emitGtidAddr(b, gtid, out_a);
        b.st(oaddr, 0, v);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = std::min(n(sc), 1024u);
        inst.grid_blocks = n(sc) / inst.block_threads;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        Rng rng(13);
        for (unsigned i = 0; i < n(sc); ++i)
            mem.writeF32(in_a + Addr(i) * 4, rng.uniform(1.f, 64.f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        Rng rng(13);
        for (unsigned i = 0; i < n(sc); ++i) {
            float s = rng.uniform(1.f, 64.f);
            float v = std::exp2(s * 0.03125f);
            float w = s * 0.03125f;
            for (unsigned k = 0; k < steps(sc); ++k) {
                v = v * 1.01f + 0.02f;
                w = w * 0.02f + 1.01f;
                v = v * 0.03125f;
                w = w * 0.03125f;
                v = v * 1.01f + 0.02f;
                w = w * 1.01f + 0.02f;
            }
            v = v + w;
            if (!checkF(mem, out_a + Addr(i) * 4, v, "bin", i, why))
                return false;
        }
        return true;
    }
};

// ================================================================
// FastWalshTransform: barrier-separated butterfly stages.
// ================================================================
class FastWalsh final : public Workload
{
  public:
    const char *name() const override { return "FastWalshTransform"; }
    bool regular() const override { return true; }

    unsigned elems(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 2048 : 256;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned n = elems(sc);
        const unsigned threads = n / 2;
        KernelBuilder b("fwt");
        Reg tid = b.reg();
        b.s2r(tid, SpecialReg::TID);

        // for stride s = n/2 .. 1 (halving): butterfly on
        // (i0, i0+s) where i0 = 2*t - (t & (s-1)).
        Reg s = b.reg(), cond = b.reg();
        b.movi(s, i32(n / 2));
        b.loop();
        {
            Reg smask = b.reg(), i0 = b.reg(), t2 = b.reg();
            b.iadd(smask, s, Imm(-1));
            b.and_(smask, tid, smask); // t & (s-1)
            b.shl(t2, tid, Imm(1));
            b.isub(i0, t2, smask);
            // i0 = 2t - (t&(s-1)) ... wrong: need 2t - (t&(s-1))?
            // Standard: i0 = 2*t - (t mod s). Keep as computed.
            Reg a0 = b.reg(), a1 = b.reg(), va = b.reg(),
                vb = b.reg(), sum = b.reg(), diff = b.reg();
            b.shl(a0, i0, Imm(2));
            b.iadd(a0, a0, Imm(i32(out_a)));
            b.shl(a1, s, Imm(2));
            b.iadd(a1, a0, a1);
            b.ld(va, a0);
            b.ld(vb, a1);
            b.fadd(sum, va, vb);
            b.fsub(diff, va, vb);
            b.bar();
            b.st(a0, 0, sum);
            b.st(a1, 0, diff);
            b.bar();
            b.shr(s, s, Imm(1));
            b.isetgt(cond, s, Imm(0));
        }
        b.endLoopIf(cond);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = threads;
        inst.grid_blocks = 1;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        Rng rng(17);
        // In-place in out_a.
        for (unsigned i = 0; i < elems(sc); ++i)
            mem.writeF32(out_a + Addr(i) * 4,
                         rng.uniform(-4.f, 4.f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned n = elems(sc);
        std::vector<float> v(n);
        Rng rng(17);
        for (auto &x : v)
            x = rng.uniform(-4.f, 4.f);
        for (unsigned s = n / 2; s >= 1; s /= 2) {
            std::vector<float> nv = v;
            for (unsigned t = 0; t < n / 2; ++t) {
                unsigned i0 = 2 * t - (t & (s - 1));
                nv[i0] = v[i0] + v[i0 + s];
                nv[i0 + s] = v[i0] - v[i0 + s];
            }
            v = nv;
        }
        for (unsigned i = 0; i < n; ++i) {
            if (!checkF(mem, out_a + Addr(i) * 4, v[i], "fwt", i,
                        why)) {
                return false;
            }
        }
        return true;
    }
};

// ================================================================
// DWTHaar1D: single wavelet level; stride-2 gathers.
// ================================================================
class DwtHaar final : public Workload
{
  public:
    const char *name() const override { return "DWTHaar1D"; }
    bool regular() const override { return true; }

    unsigned n(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 4096 : 256;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned nn = n(sc);
        KernelBuilder b("dwt");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);
        Reg a0 = b.reg();
        b.shl(a0, gtid, Imm(3)); // (2*gtid)*4
        b.iadd(a0, a0, Imm(i32(in_a)));
        Reg va = b.reg(), vb = b.reg();
        b.ld(va, a0);
        b.ld(vb, a0, 4);
        Reg half = b.reg(), avg = b.reg(), diff = b.reg();
        b.fmovi(half, 0.70710678f);
        b.fadd(avg, va, vb);
        b.fmul(avg, avg, half);
        b.fsub(diff, va, vb);
        b.fmul(diff, diff, half);
        Reg oa = emitGtidAddr(b, gtid, out_a);
        Reg ob = b.reg();
        b.iadd(ob, oa, Imm(i32(nn * 4)));
        b.st(oa, 0, avg);
        b.st(ob, 0, diff);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = std::min(nn, 1024u);
        inst.grid_blocks = nn / inst.block_threads;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        Rng rng(19);
        for (unsigned i = 0; i < 2 * n(sc); ++i)
            mem.writeF32(in_a + Addr(i) * 4, rng.uniform(-8.f, 8.f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned nn = n(sc);
        std::vector<float> in(2 * nn);
        Rng rng(19);
        for (auto &x : in)
            x = rng.uniform(-8.f, 8.f);
        for (unsigned i = 0; i < nn; ++i) {
            float avg = (in[2 * i] + in[2 * i + 1]) * 0.70710678f;
            float diff = (in[2 * i] - in[2 * i + 1]) * 0.70710678f;
            if (!checkF(mem, out_a + Addr(i) * 4, avg, "avg", i,
                        why) ||
                !checkF(mem, out_a + Addr(nn + i) * 4, diff, "diff",
                        i, why)) {
                return false;
            }
        }
        return true;
    }
};

// ================================================================
// Hotspot: 2D 5-point stencil, two input grids, clamped borders.
// ================================================================
class Hotspot final : public Workload
{
  public:
    const char *name() const override { return "Hotspot"; }
    bool regular() const override { return true; }

    unsigned dim(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 64 : 16;
    }

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned n = dim(sc);
        KernelBuilder b("hotspot");
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

        Reg p = b.reg();
        {
            Reg paddr = emitGtidAddr(b, gtid, in_b);
            b.ld(p, paddr);
        }

        // t' = c + 0.2*(l+r+u+d-4c) + 0.05*p
        Reg acc = b.reg(), w = b.reg(), four = b.reg();
        b.fadd(acc, l, r);
        b.fadd(acc, acc, u);
        b.fadd(acc, acc, d);
        b.fmovi(four, -4.0f);
        b.fmad(acc, c, four, acc);
        b.fmovi(w, 0.2f);
        b.fmul(acc, acc, w);
        b.fadd(acc, acc, c);
        b.fmovi(w, 0.05f);
        b.fmad(acc, p, w, acc);

        Reg oaddr = emitGtidAddr(b, gtid, out_a);
        b.st(oaddr, 0, acc);

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
        Rng rng(23);
        for (unsigned i = 0; i < n * n; ++i) {
            mem.writeF32(in_a + Addr(i) * 4, rng.uniform(40.f, 90.f));
            mem.writeF32(in_b + Addr(i) * 4, rng.uniform(0.f, 2.f));
        }
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned n = dim(sc);
        std::vector<float> t(n * n), p(n * n);
        Rng rng(23);
        for (unsigned i = 0; i < n * n; ++i) {
            t[i] = rng.uniform(40.f, 90.f);
            p[i] = rng.uniform(0.f, 2.f);
        }
        auto at = [&](int x, int y) {
            x = std::clamp(x, 0, int(n) - 1);
            y = std::clamp(y, 0, int(n) - 1);
            return t[size_t(y) * n + size_t(x)];
        };
        for (unsigned y = 0; y < n; ++y) {
            for (unsigned x = 0; x < n; ++x) {
                float c = at(int(x), int(y));
                float acc = at(int(x) - 1, int(y)) +
                            at(int(x) + 1, int(y)) +
                            at(int(x), int(y) - 1) +
                            at(int(x), int(y) + 1);
                acc = c * -4.0f + acc;
                acc = acc * 0.2f + c;
                acc = p[y * n + x] * 0.05f + acc;
                if (!checkF(mem, out_a + Addr(y * n + x) * 4, acc,
                            "hs", y * n + x, why)) {
                    return false;
                }
            }
        }
        return true;
    }
};

// ================================================================
// Backprop: dense layer forward pass; coalesced weight streaming.
// ================================================================
class Backprop final : public Workload
{
  public:
    const char *name() const override { return "Backprop"; }
    bool regular() const override { return true; }

    unsigned n(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 4096 : 256;
    }
    static constexpr unsigned fan_in = 16;

    Instance
    instance(SizeClass sc) const override
    {
        const unsigned nn = n(sc);
        KernelBuilder b("backprop");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);

        Reg acc = b.reg(), k = b.reg(), cond = b.reg(),
            waddr = b.reg(), xaddr = b.reg(), wv = b.reg(),
            xv = b.reg();
        b.fmovi(acc, 0.0f);
        b.movi(k, 0);
        // W[k*nn + gtid] (coalesced), X[k] (broadcast)
        b.shl(waddr, gtid, Imm(2));
        b.iadd(waddr, waddr, Imm(i32(in_a)));
        b.movi(xaddr, i32(in_b));
        b.loop();
        {
            b.ld(wv, waddr);
            b.ld(xv, xaddr);
            b.fmad(acc, wv, xv, acc);
            b.iadd(waddr, waddr, Imm(i32(nn * 4)));
            b.iadd(xaddr, xaddr, Imm(4));
            b.iadd(k, k, Imm(1));
            b.isetlt(cond, k, Imm(i32(fan_in)));
        }
        b.endLoopIf(cond);

        // sigmoid ~ 1/(1+exp2(-acc))
        Reg e = b.reg(), one = b.reg();
        b.fneg(e, acc);
        b.exp2_(e, e);
        b.fmovi(one, 1.0f);
        b.fadd(e, e, one);
        b.rcp(e, e);

        Reg oaddr = emitGtidAddr(b, gtid, out_a);
        b.st(oaddr, 0, e);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = std::min(nn, 1024u);
        inst.grid_blocks = nn / inst.block_threads;
        return inst;
    }

    void
    init(mem::MemoryImage &mem, SizeClass sc) const override
    {
        const unsigned nn = n(sc);
        Rng rng(29);
        for (unsigned i = 0; i < fan_in * nn; ++i)
            mem.writeF32(in_a + Addr(i) * 4,
                         rng.uniform(-0.5f, 0.5f));
        for (unsigned i = 0; i < fan_in; ++i)
            mem.writeF32(in_b + Addr(i) * 4, rng.uniform(-1.f, 1.f));
    }

    bool
    verify(const mem::MemoryImage &mem, SizeClass sc,
           std::string *why) const override
    {
        const unsigned nn = n(sc);
        std::vector<float> w(fan_in * nn), x(fan_in);
        Rng rng(29);
        for (auto &v : w)
            v = rng.uniform(-0.5f, 0.5f);
        for (auto &v : x)
            v = rng.uniform(-1.f, 1.f);
        for (unsigned i = 0; i < nn; ++i) {
            float acc = 0.0f;
            for (unsigned k = 0; k < fan_in; ++k)
                acc = w[k * nn + i] * x[k] + acc;
            float sig = 1.0f / (std::exp2(-acc) + 1.0f);
            if (!checkF(mem, out_a + Addr(i) * 4, sig, "bp", i, why))
                return false;
        }
        return true;
    }
};

// ================================================================
// MonteCarlo: per-thread LCG paths, branchless payoff max.
// ================================================================
class MonteCarlo final : public Workload
{
  public:
    const char *name() const override { return "MonteCarlo"; }
    bool regular() const override { return true; }

    unsigned n(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 2048 : 256;
    }
    unsigned paths(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 32 : 8;
    }

    Instance
    instance(SizeClass sc) const override
    {
        KernelBuilder b("montecarlo");
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);

        Reg x = b.reg();
        b.imul(x, gtid, Imm(747796405));
        b.iadd(x, x, Imm(i32(2891336453u)));

        // Two independent LCG streams per thread (path batching).
        Reg y = b.reg();
        b.imul(y, gtid, Imm(i32(2246822519u)));
        b.iadd(y, y, Imm(i32(3266489917u)));

        Reg acc = b.reg(), acc2 = b.reg(), k = b.reg(),
            cond = b.reg(), u = b.reg(), u2 = b.reg(),
            strike = b.reg(), pay = b.reg(), pay2 = b.reg(),
            zero = b.reg(), scale = b.reg();
        b.fmovi(acc, 0.0f);
        b.fmovi(acc2, 0.0f);
        b.fmovi(strike, 0.4f);
        b.fmovi(zero, 0.0f);
        b.fmovi(scale, 1.0f / 16777216.0f);
        b.movi(k, 0);
        b.loop();
        {
            b.imul(x, x, Imm(1664525));
            b.imul(y, y, Imm(22695477));
            b.iadd(x, x, Imm(1013904223));
            b.iadd(y, y, Imm(1));
            b.shr(u, x, Imm(8));
            b.shr(u2, y, Imm(8));
            b.i2f(u, u);
            b.i2f(u2, u2);
            b.fmul(u, u, scale);
            b.fmul(u2, u2, scale);
            b.fsub(pay, u, strike);
            b.fsub(pay2, u2, strike);
            b.fmax(pay, pay, zero);
            b.fmax(pay2, pay2, zero);
            b.fadd(acc, acc, pay);
            b.fadd(acc2, acc2, pay2);
            b.iadd(k, k, Imm(1));
            b.isetlt(cond, k, Imm(i32(paths(sc))));
        }
        b.endLoopIf(cond);

        Reg inv = b.reg();
        b.fadd(acc, acc, acc2);
        b.fmovi(inv, 0.5f / float(paths(sc)));
        b.fmul(acc, acc, inv);

        Reg oaddr = emitGtidAddr(b, gtid, out_a);
        b.st(oaddr, 0, acc);

        Instance inst;
        inst.raw = b.build();
        inst.block_threads = std::min(n(sc), 1024u);
        inst.grid_blocks = n(sc) / inst.block_threads;
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
        for (unsigned i = 0; i < n(sc); ++i) {
            u32 x = u32(i) * 747796405u + 2891336453u;
            u32 y = u32(i) * 2246822519u + 3266489917u;
            float acc = 0.0f, acc2 = 0.0f;
            for (unsigned k = 0; k < paths(sc); ++k) {
                x = x * 1664525u + 1013904223u;
                y = y * 22695477u + 1u;
                float u = float(i32(x >> 8)) * (1.0f / 16777216.0f);
                float u2 = float(i32(y >> 8)) * (1.0f / 16777216.0f);
                acc += std::fmax(u - 0.4f, 0.0f);
                acc2 += std::fmax(u2 - 0.4f, 0.0f);
            }
            acc = (acc + acc2) * (0.5f / float(paths(sc)));
            if (!checkF(mem, out_a + Addr(i) * 4, acc, "mc", i, why))
                return false;
        }
        return true;
    }
};

} // namespace

std::vector<const Workload *>
regularSuite()
{
    static const Fd3d fd3d;
    static const Backprop backprop;
    static const BinomialOptions binomial;
    static const BlackScholes blackscholes;
    static const DwtHaar dwt;
    static const FastWalsh fwt;
    static const Hotspot hotspot;
    static const MatrixMul matmul;
    static const MonteCarlo montecarlo;
    static const Transpose transpose;
    return {&fd3d,    &backprop, &binomial,   &blackscholes,
            &dwt,     &fwt,      &hotspot,    &matmul,
            &montecarlo, &transpose};
}

} // namespace siwi::workloads
