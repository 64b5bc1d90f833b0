/**
 * @file
 * One audit switch for the whole integration binary: a gtest global
 * environment turns SM::setSleepAudit on before the first test and
 * off after the last, so every SM stepped by any test here re-checks
 * the work-set invariant twice per step() — no inactive or parked
 * warp in a fetch, issue or sleep-check set, a parked warp in the
 * heap set only while its sorter fold is pending and not yet due,
 * every parked warp still provably unable to act, every cached
 * issue-stage verdict equal to a fresh derivation, and every awake
 * warp outside a work set one that set's stage has nothing to do
 * for. A violation panics (aborts) with the warp, cycle and full SM
 * debug state, which gtest reports as a crashed test with that
 * message.
 */

#include <gtest/gtest.h>

#include "pipeline/sm.hh"

namespace siwi {
namespace {

class SleepAuditEnvironment final : public testing::Environment
{
  public:
    void SetUp() override { pipeline::SM::setSleepAudit(true); }
    void TearDown() override { pipeline::SM::setSleepAudit(false); }
};

// gtest takes ownership; registration before main() runs the
// environment around every test of the binary.
testing::Environment *const sleep_audit_env =
    testing::AddGlobalTestEnvironment(new SleepAuditEnvironment);

} // namespace
} // namespace siwi
