/**
 * @file
 * One list per struct: the X-macro rows that declare each field of
 * a config or stats struct once.
 *
 * A config struct's list is a macro LIST(X, S, P, K). Each of its
 * rows is one field of that struct:
 *
 *   X(P, K, U32, name, default, "doc")          a u32 field
 *   X(P, K, U32, name, default, "doc", lo, hi)  ... bounded to
 *                                               lo..hi (inclusive)
 *   X(P, K, BOOL, name, default, "doc")
 *   X(P, K, ENUM, name, default, "doc", names)  names[i] spells
 *                                               enumerator i
 *   X(P, K, STRUCT, name, Type)                 a nested config
 *                                               struct
 *
 * A STRUCT row is followed by the nested struct's own list, whose
 * rows all expand with S, under the member path `P name.` and a key
 * prefix appended to K:
 *
 *   X(P, K, STRUCT, l1, CacheConfig)
 *   SIWI_CACHE_CONFIG_FIELDS(S, S, P l1., K "l1_")
 *
 * So a field's key is its member name behind the prefixes of the
 * structs it sits in (mem.l1.size_bytes is "l1_size_bytes"). A
 * struct body expands its list with SIWI_CFG_MEMBER for its own
 * rows and SIWI_CFG_NONE for the nested ones; expanded with
 * SIWI_CFG_FIELD (common/config_reflect.hh) for both, the list is
 * the outermost struct's ConfigField table.
 *
 * A stats struct's counter list is a macro LIST(X) of X(name)
 * rows, one u64 counter each. SIWI_COUNTER_MEMBER declares them;
 * core/stats.hh turns the same list into the table that
 * serializes, parses and sums them.
 */

#ifndef SIWI_COMMON_FIELD_LIST_HH
#define SIWI_COMMON_FIELD_LIST_HH

#include "common/types.hh"

/** Declares a struct's own row as a member with its default. */
#define SIWI_CFG_MEMBER(P, K, kind, ...) \
    SIWI_CFG_MEMBER_##kind(__VA_ARGS__)
#define SIWI_CFG_MEMBER_U32(name, def, ...) ::siwi::u32 name = def;
#define SIWI_CFG_MEMBER_BOOL(name, def, doc) bool name = def;
// The enum's type is the default enumerator's; name is declared,
// not evaluated.
// NOLINTNEXTLINE(bugprone-macro-parentheses)
#define SIWI_CFG_MEMBER_ENUM(name, def, ...) decltype(def) name = def;
#define SIWI_CFG_MEMBER_STRUCT(name, Type) Type name;

/** Expands a row to nothing. */
#define SIWI_CFG_NONE(...)

/** Declares one counter of a stats struct. */
#define SIWI_COUNTER_MEMBER(name) ::siwi::u64 name = 0;

#endif // SIWI_COMMON_FIELD_LIST_HH
