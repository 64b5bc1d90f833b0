// Fixture: stats serialization; the counters come from the list in
// stats.hh, the other members are written by hand into a JsonWriter.
#include "core/stats_io.hh"

namespace siwi::core {

void
writeJson(JsonWriter &w, const SimStats &st)
{
    w.key("cycles").value(st.cycles);
    w.key("extra").value(st.extra);
}

} // namespace siwi::core
