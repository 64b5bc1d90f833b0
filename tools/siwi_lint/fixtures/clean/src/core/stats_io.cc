// Fixture: stats serialization; the counters come from the list in
// stats.hh, the other members are written by hand.
#include "core/stats_io.hh"

namespace siwi::core {

void
statsToJson(const SimStats &st, Json *j)
{
    j->set("cycles", st.cycles);
    j->set("extra", st.extra);
}

} // namespace siwi::core
