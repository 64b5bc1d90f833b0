/**
 * @file
 * Memory access coalescing into 128-byte transactions.
 *
 * Models the paper's LSU: "It can coalesce together multiple
 * parallel accesses that fall within the same 128-byte cache block.
 * Memory instructions that encounter conflicts are replayed with an
 * updated activity mask" (section 2).
 */

#ifndef SIWI_MEM_COALESCER_HH
#define SIWI_MEM_COALESCER_HH

#include <span>

#include "common/lane_mask.hh"
#include "common/types.hh"
#include "mem/memory_image.hh"

namespace siwi::mem {

/** One coalesced memory transaction. */
struct Transaction
{
    Addr block;     //!< block-aligned base address
    LaneMask lanes; //!< lanes served by this transaction
};

/** One warp access's transactions, in first-touching-lane order. */
using Transactions = LaneBuffer<Transaction>;

/**
 * Coalesce per-lane accesses into block-aligned transactions,
 * written to @p out.
 *
 * Transactions are emitted in order of first touching lane, which is
 * the order the LSU replays them in.
 *
 * @param accesses per-lane byte addresses (active lanes only)
 * @param block_bytes transaction size (128 in the paper)
 */
void coalesce(std::span<const LaneAccess> accesses, unsigned block_bytes,
              Transactions &out);

/**
 * The first transaction coalesce() would emit for @p accesses (not
 * empty), in one pass; @p more receives whether any lane falls
 * outside it, i.e. whether coalesce() would emit more than one.
 */
Transaction firstTransaction(std::span<const LaneAccess> accesses,
                             unsigned block_bytes, bool *more);

} // namespace siwi::mem

#endif // SIWI_MEM_COALESCER_HH
