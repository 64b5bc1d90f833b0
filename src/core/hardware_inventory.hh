/**
 * @file
 * Storage inventory of each pipeline configuration (paper Table 3).
 *
 * Note on parameters: Table 3 of the paper sizes structures for a
 * 1536-thread SM (48 x 32-wide warps baseline, 24 x 64-wide for the
 * interweaving designs), while the performance experiments of
 * Table 2 simulate 1024 threads. We follow the paper: the inventory
 * and the area model use the Table 3 geometry, the performance
 * simulations use Table 2.
 */

#ifndef SIWI_CORE_HARDWARE_INVENTORY_HH
#define SIWI_CORE_HARDWARE_INVENTORY_HH

#include <string>
#include <vector>

#include "pipeline/config.hh"

namespace siwi::core {

/** One storage component of the SM front-end. */
struct StorageItem
{
    std::string component; //!< e.g. "Scoreboard"
    std::string geometry;  //!< e.g. "2x 24x 48-bit"
    u64 bits = 0;          //!< total storage bits
    std::string note;      //!< qualifier (banked, dual-ported, ...)
};

/** Inventory parameters (Table 3 uses the 1536-thread geometry). */
struct InventoryParams
{
    unsigned threads = 1536;
    unsigned baseline_width = 32;
    unsigned wide_width = 64;
    unsigned scoreboard_entries = 6;
    unsigned stack_blocks = 3;   //!< baseline stack: blocks per warp
    unsigned stack_block_entries = 4;
    unsigned cct_entries_per_warp = 8;
};

/**
 * Compute the Table 3 storage inventory of @p mode.
 */
std::vector<StorageItem> hardwareInventory(
    pipeline::PipelineMode mode, const InventoryParams &p = {});

/** Total front-end storage bits of @p mode. */
u64 inventoryTotalBits(pipeline::PipelineMode mode,
                       const InventoryParams &p = {});

/** Render the full Table 3 (all four configurations). */
std::string formatInventoryTable(const InventoryParams &p = {});

} // namespace siwi::core

#endif // SIWI_CORE_HARDWARE_INVENTORY_HH
