/**
 * @file
 * Pure transition logic of the non-privatization algorithm
 * (paper Figures 4, 6, and 7).
 *
 * These functions mutate the access-bit state and report what the
 * hardware must do next (send an update message, bounce a message,
 * or FAIL the parallelization). They touch only their arguments, so
 * property tests can drive them directly; the speculation units in
 * spec_unit.cc call them from the protocol hooks and record the
 * changes they make.
 */

#ifndef SPECRT_SPEC_NONPRIV_HH
#define SPECRT_SPEC_NONPRIV_HH

#include "spec/access_bits.hh"

namespace specrt
{

/** Outcome of a cache-side non-privatization step. */
struct NPCacheResult
{
    bool fail = false;
    /** Cache must send a First_update to the home. */
    bool sendFirstUpdate = false;
    /** Cache must send a ROnly_update to the home. */
    bool sendROnlyUpdate = false;
    const char *reason = nullptr;
};

/** Outcome of a directory-side non-privatization step. */
struct NPDirResult
{
    bool fail = false;
    /** Home must bounce a First_update_fail to the sender. */
    bool sendFirstUpdateFail = false;
    const char *reason = nullptr;
};

/**
 * Processor read hitting in the cache (Fig. 6(a)).
 * @param line_dirty whether the line is exclusive-dirty here (update
 *        messages are skipped for dirty lines).
 */
NPCacheResult npCacheRead(NPTagBits &t, bool line_dirty);

/** Processor write hitting a dirty line (Fig. 6(c), dirty path). */
NPCacheResult npCacheWriteDirty(NPTagBits &t);

/**
 * Apply the access that caused a miss to freshly installed tag bits
 * (no messages: the home runs the authoritative update for this
 * access). Idempotent when the bits already reflect the access.
 */
NPCacheResult npCacheLocalApply(NPTagBits &t, bool is_write);

/** Cache receives a First_update_fail (Fig. 7(g)). */
NPCacheResult npCacheFirstUpdateFail(NPTagBits &t);

/** Home processes a read request (Fig. 6(b), post-merge). */
NPDirResult npDirRead(NPDirBits &d, NodeId requester);

/** Home processes a write request (Fig. 6(d), post-merge). */
NPDirResult npDirWrite(NPDirBits &d, NodeId requester);

/** Home receives a First_update (Fig. 7(f)). */
NPDirResult npDirFirstUpdate(NPDirBits &d, NodeId sender);

/** Home receives a ROnly_update (Fig. 7(h)). */
NPDirResult npDirROnlyUpdate(NPDirBits &d, NodeId sender);

/**
 * Combine one element's owner tag wire bits with the home's
 * directory wire bits (see SpecCacheIface::combineBits). The owner's
 * encoding may say "OTHER was first" without naming it; the home
 * always can name it, so the combination carries a real id.
 */
uint32_t npCombineWire(uint32_t owner_wire, uint32_t home_wire);

/**
 * Merge an owner's dirty-line tag bits into the directory ("update
 * directory using the tag state of all the words of the dirty
 * line"). A contradictory merge is itself evidence of a
 * cross-iteration dependence and fails.
 *
 * @param wire   packed tag bits from the owner (npPackTag encoding)
 * @param sender the owner node
 */
NPDirResult npDirMergeDirty(NPDirBits &d, NodeId sender, uint32_t wire);

} // namespace specrt

#endif // SPECRT_SPEC_NONPRIV_HH
