/**
 * @file
 * Message types exchanged between cache controllers and directories.
 *
 * The base protocol is a DASH-like invalidation protocol. On top of
 * it ride the speculative-parallelization messages of the paper:
 * First_update / ROnly_update (non-privatization algorithm, Figs. 6-7)
 * and read-first / first-write / read-in (privatization algorithm,
 * Figs. 8-9). Spec messages reuse the same network and the same
 * per-line serialization at the home directory.
 */

#ifndef SPECRT_MEM_MSG_HH
#define SPECRT_MEM_MSG_HH

#include <cstdint>

#include "sim/small_vec.hh"
#include "sim/types.hh"

namespace specrt
{

/**
 * Line data payload: inline up to 64 bytes (the default line size),
 * heap-backed only for exotic configurations with larger lines.
 */
using MsgData = SmallVec<uint8_t, 64>;

/**
 * Speculation-bits payload: one word per element of a line (16 with
 * 64-byte lines and 4-byte elements), or a single word for
 * element-granularity signals. Inline in the common case.
 */
using MsgBits = SmallVec<uint32_t, 16>;

/** All message kinds in the system. */
enum class MsgType : uint8_t
{
    // --- base DASH-like protocol, cache -> home ---
    ReadReq,       ///< read miss
    WriteReq,      ///< write miss or upgrade
    Writeback,     ///< eviction of a dirty line (carries data)

    // --- home -> cache ---
    ReadReply,     ///< data for a read (shared)
    WriteReply,    ///< data + ownership for a write
    Inval,         ///< invalidate a shared copy
    WritebackAck,  ///< home accepted (or superseded) a writeback

    // --- home -> owner (forwards) ---
    ReadFwd,       ///< get data for a remote reader, downgrade
    WriteFwd,      ///< give data + ownership to a remote writer

    // --- owner -> home (transaction completion legs) ---
    ShareWb,       ///< sharing writeback after ReadFwd (carries data)
    OwnXfer,       ///< ownership transfer notice after WriteFwd

    // --- cache -> home ---
    InvalAck,      ///< invalidation acknowledged

    // --- speculation: non-privatization algorithm ---
    FirstUpdate,     ///< cache set tag.First=OWN on a clean read hit
    ROnlyUpdate,     ///< cache set tag.ROnly on a clean read hit
    FirstUpdateFail, ///< home bounced a FirstUpdate (race, Fig. 7(g))

    // --- speculation: privatization algorithm ---
    ReadFirstSig,    ///< private dir -> shared dir (Fig. 8(b,d))
    FirstWriteSig,   ///< private dir -> shared dir (Fig. 9(g,i))
    ReadInReq,       ///< private dir -> shared dir, wants line data
    ReadInReply,     ///< shared dir -> private dir, line data
    CopyOutSig,      ///< last-value copy-out to the shared array
};

/** Name of a message type. */
const char *msgTypeName(MsgType t);

/** True for messages processed by a home directory. */
bool msgToHome(MsgType t);

/**
 * One message. A sender builds it and Network::send() copies it once
 * into the network's pool; that pooled copy is the only one. The
 * delivery hands it to its handler by reference, and a home
 * directory that serializes the request keeps it there until the
 * transaction finishes (Network::retain()/release()).
 *
 * Word-granularity speculation state travels in specBits: one entry
 * per word of the line for line-carrying messages, or a single entry
 * for element-granularity spec messages. The encoding is owned by the
 * spec layer (mem/ treats it as opaque payload).
 */
struct Msg
{
    MsgType type;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    /** Line-aligned address of the line this message concerns. */
    Addr lineAddr = invalidAddr;
    /** Element address for element-granularity spec messages. */
    Addr elemAddr = invalidAddr;

    /** Requester on whose behalf a forward travels. */
    NodeId requester = invalidNode;

    /** Line data for data-carrying messages. */
    MsgData data;

    /** Opaque per-word speculation state (see spec/access_bits.hh). */
    MsgBits specBits;

    /** Iteration number of the access that sent the message. */
    IterNum iter = 0;

    /**
     * Requester-side transaction sequence number for ReadReq/WriteReq
     * and every reply generated on their behalf (echoed through
     * forwards). The requester uses it to discard stale replies that
     * race with watchdog retries; 0 means "no sequence" (messages
     * outside a requester transaction).
     */
    uint64_t txnSeq = 0;

    /** For ShareWb: whether the previous owner kept a shared copy. */
    bool ownerRetains = false;

    /** For WriteReq: requester already holds a shared copy. */
    bool isUpgrade = false;

    /** For ReadInReq/ReadInReply: the read-in serves a write. */
    bool forWrite = false;

    /** For CopyOutSig: the value written in iteration `iter`. */
    uint64_t value = 0;
};

} // namespace specrt

#endif // SPECRT_MEM_MSG_HH
