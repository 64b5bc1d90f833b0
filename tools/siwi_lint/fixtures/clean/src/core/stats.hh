// Fixture: minimal SimStats declared from its counter list.
#ifndef SIWI_CORE_STATS_HH
#define SIWI_CORE_STATS_HH

namespace siwi::core {

using u64 = unsigned long long;

#define SIWI_SIM_STATS_COUNTERS(X) \
    X(instructions) /* serialized under its own name */

struct SimStats
{
    u64 cycles = 0;
#define SIWI_COUNTER_MEMBER(name) u64 name = 0;
    SIWI_SIM_STATS_COUNTERS(SIWI_COUNTER_MEMBER)
    unsigned extra = 0;
};

} // namespace siwi::core

#endif // SIWI_CORE_STATS_HH
