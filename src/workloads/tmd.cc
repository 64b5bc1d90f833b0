/**
 * @file
 * TMD1 / TMD2: the Table Maker's Dilemma search kernels
 * (Fortin, Gouicem, Graillat [13] in the paper).
 *
 * A hard-to-round case search: each thread scans candidate
 * arguments, computes the fractional part of a polynomial
 * approximation, and walks deeply nested, rarely-taken refinement
 * paths when the fraction falls close to 0 or 1 -- highly irregular,
 * unstructured control flow.
 *
 * The paper found NVIDIA's compiler laid TMD1 out in a
 * non-thread-frontier order, making it the one benchmark where
 * thread-frontier reconvergence loses to the stack. We reproduce
 * both: the kernel is emitted with its join blocks *before* the
 * divergent branches; TMD1 compiles with LayoutMode::Preserve
 * (keeping the violating order), TMD2 with the thread-frontier
 * layout pass (fixing it).
 */

#include "workloads/suite.hh"

#include <cmath>

#include "common/log.hh"
#include "isa/builder.hh"

namespace siwi::workloads {

namespace {

using isa::Imm;
using isa::KernelBuilder;
using isa::Label;
using isa::Reg;
using isa::SpecialReg;

/** Shared TMD kernel body; layout mode differs between TMD1/TMD2. */
class TmdBase : public Workload
{
  public:
    bool regular() const override { return false; }
    bool excludedFromMeans() const override { return true; }

    unsigned n(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 1024 : 128;
    }
    unsigned candidates(SizeClass sc) const
    {
        return sc == SizeClass::Full ? 24 : 8;
    }

    virtual cfg::LayoutMode layout() const = 0;

    Instance
    instance(SizeClass sc) const override
    {
        KernelBuilder b(name());
        Reg gtid = b.reg();
        b.s2r(gtid, SpecialReg::GTID);

        Reg x0 = b.reg(), scale = b.reg();
        b.i2f(x0, gtid);
        b.fmovi(scale, 1.0f / 1024.0f);
        b.fmul(x0, x0, scale);

        Reg hits = b.reg(), k = b.reg(), kcond = b.reg(),
            probes = b.reg();
        b.movi(hits, 0);
        b.movi(probes, 0);
        b.movi(k, 0);

        // Emitted with raw labels so the join block -- the
        // reconvergence point of the hit/miss branches in the deep
        // and medium paths -- sits at a LOWER address than those
        // divergent branches: a deliberate thread-frontier layout
        // violation that LayoutMode::Preserve keeps (TMD1) and the
        // thread-frontier pass repairs (TMD2).
        Label loop_top = b.label();
        Label deep = b.label();
        Label deep_hit = b.label();
        Label medium = b.label();
        Label med_hit = b.label();
        Label join = b.label();
        Label next = b.label();
        Label done = b.label();

        b.bra(loop_top);

        // ---- loop latch (low address: the MAIN reconvergence
        // point of the fallthrough/deep/medium three-way divergence
        // sits *before* the divergent branches) ----
        b.bind(next);
        {
            Reg kcap = b.reg();
            b.iadd(k, k, Imm(1));
            b.movi(kcap, i32(candidates(sc)));
            b.isetlt(kcond, k, kcap);
            b.bnz(kcond, loop_top);
            b.bra(done);
        }

        // ---- shared tail of the refinement paths (low address) ----
        b.bind(join);
        {
            b.iadd(probes, probes, Imm(1));
            b.bra(next);
        }

        // ---- loop header & fraction computation ----
        b.bind(loop_top);
        Reg x = b.reg(), kf = b.reg(), step = b.reg(), y = b.reg(),
            yi = b.reg(), frac = b.reg();
        {
            b.i2f(kf, k);
            b.fmovi(step, 0.03125f);
            b.fmad(x, kf, step, x0);
            // y = frac(x * C) via y - trunc(y)
            Reg cc = b.reg();
            b.fmovi(cc, 13.4567f);
            b.fmul(y, x, cc);
            b.f2i(yi, y);
            b.i2f(yi, yi);
            b.fsub(frac, y, yi);

            Reg eps = b.reg(), is_low = b.reg();
            b.fmovi(eps, 0.06f);
            b.fsetlt(is_low, frac, eps);
            b.bnz(is_low, deep);

            Reg hi_thresh = b.reg(), is_high = b.reg();
            b.fmovi(hi_thresh, 0.94f);
            b.fsetgt(is_high, frac, hi_thresh);
            b.bnz(is_high, medium);
            b.bra(next);
        }

        // ---- deep refinement path (rare) ----
        b.bind(deep);
        {
            Reg acc = b.reg(), j = b.reg(), jcond = b.reg(),
                c1 = b.reg();
            b.mov(acc, frac);
            b.fmovi(c1, 1.5f);
            b.movi(j, 0);
            b.loop();
            {
                b.fmad(acc, acc, c1, acc);
                b.iadd(j, j, Imm(1));
                b.isetlt(jcond, j, Imm(8));
            }
            b.endLoopIf(jcond);
            Reg lim = b.reg(), ok = b.reg();
            b.fmovi(lim, 4.0f);
            b.fsetlt(ok, acc, lim);
            // Divergent hit/miss branch reconverging at the early
            // join block.
            b.bnz(ok, deep_hit);
            b.fmul(acc, acc, c1); // miss-path work
            b.bra(join);
        }
        b.bind(deep_hit);
        {
            b.iadd(hits, hits, Imm(1));
            b.bra(join);
        }

        // ---- medium path (rare) ----
        b.bind(medium);
        {
            Reg acc = b.reg(), one = b.reg(), j = b.reg(),
                jcond = b.reg();
            b.fmovi(one, 1.0f);
            b.fsub(acc, one, frac);
            b.movi(j, 0);
            b.loop();
            {
                b.fadd(acc, acc, acc);
                b.iadd(j, j, Imm(1));
                b.isetlt(jcond, j, Imm(4));
            }
            b.endLoopIf(jcond);
            Reg lim = b.reg(), ok = b.reg();
            b.fmovi(lim, 0.8f);
            b.fsetlt(ok, acc, lim);
            b.bnz(ok, med_hit);
            b.fadd(acc, acc, acc); // miss-path work
            b.bra(join);
        }
        b.bind(med_hit);
        {
            b.iadd(hits, hits, Imm(1));
            b.bra(join);
        }

        b.bind(done);
        Reg oaddr = b.reg();
        b.shl(oaddr, gtid, Imm(2));
        b.iadd(oaddr, oaddr, Imm(i32(out_a)));
        b.st(oaddr, 0, hits);
        b.exit_();

        Instance inst;
        inst.raw = b.build();
        inst.compile.layout = layout();
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
            float x0 = float(i32(i)) * (1.0f / 1024.0f);
            u32 hits = 0;
            for (unsigned k = 0; k < candidates(sc); ++k) {
                float x = float(i32(k)) * 0.03125f + x0;
                float y = x * 13.4567f;
                float yi = float(i32(y));
                float frac = y - yi;
                if (frac < 0.06f) {
                    float acc = frac;
                    for (int j = 0; j < 8; ++j)
                        acc = acc * 1.5f + acc;
                    if (acc < 4.0f)
                        ++hits;
                } else if (frac > 0.94f) {
                    float acc = 1.0f - frac;
                    for (int j = 0; j < 4; ++j)
                        acc = acc + acc;
                    if (acc < 0.8f)
                        ++hits;
                }
            }
            if (!checkI(mem, out_a + Addr(i) * 4, hits, "tmd", i,
                        why))
                return false;
        }
        return true;
    }
};

class Tmd1 final : public TmdBase
{
  public:
    const char *name() const override { return "TMD1"; }
    cfg::LayoutMode layout() const override
    {
        return cfg::LayoutMode::Preserve;
    }
};

class Tmd2 final : public TmdBase
{
  public:
    const char *name() const override { return "TMD2"; }
    cfg::LayoutMode layout() const override
    {
        return cfg::LayoutMode::ThreadFrontier;
    }
};

} // namespace

std::vector<const Workload *>
tmdSuite()
{
    static const Tmd1 tmd1;
    static const Tmd2 tmd2;
    return {&tmd1, &tmd2};
}

} // namespace siwi::workloads
