/**
 * @file
 * Test helper: sweeps of the checked-in bench/specs files, the one
 * definition of every experiment.
 */

#ifndef SIWI_TESTS_RUNNER_CHECKED_IN_SPEC_HH
#define SIWI_TESTS_RUNNER_CHECKED_IN_SPEC_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runner/spec.hh"

namespace siwi::runner {

/** The sweep named @p sweep of bench/specs/@p file. */
inline SweepSpec
checkedInSweep(const std::string &file, const std::string &sweep)
{
    MachineRegistry reg;
    std::vector<SweepSpec> sweeps;
    std::string label, err;
    if (!loadSpecFile(std::string(SIWI_SOURCE_DIR) +
                          "/bench/specs/" + file,
                      &reg, &sweeps, &label, &err))
        ADD_FAILURE() << err;
    for (SweepSpec &s : sweeps) {
        if (s.name == sweep)
            return s;
    }
    ADD_FAILURE() << file << " has no sweep " << sweep;
    return {};
}

/** Figure 7's irregular panel at Tiny size. */
inline SweepSpec
fig7IrregularTiny()
{
    SweepSpec s = checkedInSweep("fig7.json", "fig7_irregular");
    s.size = workloads::SizeClass::Tiny;
    return s;
}

} // namespace siwi::runner

#endif // SIWI_TESTS_RUNNER_CHECKED_IN_SPEC_HH
