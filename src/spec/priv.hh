/**
 * @file
 * Pure transition logic of the privatization algorithm with read-in
 * and copy-out support (paper Figures 8 and 9).
 *
 * Terminology: an iteration is "read-first" for an element when it
 * reads the element before writing it in that same iteration. The
 * shared array's home keeps MaxR1st / MinW time stamps per element;
 * the test fails whenever a read-first iteration is higher than some
 * writing iteration.
 *
 * Like spec/nonpriv.hh, the functions touch only their arguments;
 * the speculation units record the time-stamp moves they make.
 */

#ifndef SPECRT_SPEC_PRIV_HH
#define SPECRT_SPEC_PRIV_HH

#include "spec/access_bits.hh"

namespace specrt
{

/** Outcome of a privatization cache-side step. */
struct PrivCacheResult
{
    /** The access is a read-first for the element this iteration;
     *  a read-first signal goes to the private directory. */
    bool readFirst = false;
    /** First write to the element in this iteration; a first-write
     *  signal goes to the private directory. */
    bool firstWrite = false;
};

/** Outcome of a private-directory step. */
struct PrivPDirResult
{
    /** The whole line is untouched: read the line in from the
     *  shared array before replying (Figs. 8(c) / 9(h)). */
    bool needReadIn = false;
    /** Forward a read-first signal to the shared directory. */
    bool readFirst = false;
    /** Forward a first-write signal to the shared directory. */
    bool firstWrite = false;
};

/** Outcome of a shared-directory step. */
struct PrivSDirResult
{
    bool fail = false;
    const char *reason = nullptr;
};

/** Effective tag bits for @p iter (per-iteration clearing). */
inline PrivTagBits
privEffective(const PrivTagBits &t, IterNum iter)
{
    return t.iter == iter ? t : PrivTagBits{false, false, iter};
}

/** Processor read hitting in the cache (Fig. 8(a)). */
PrivCacheResult privCacheRead(PrivTagBits &t, IterNum iter);

/** Processor write hitting in the cache (Fig. 9(f)). */
PrivCacheResult privCacheWrite(PrivTagBits &t, IterNum iter);

/**
 * Private directory receives a read-first signal from its processor
 * (Fig. 8(b)). Always forwards to the shared directory.
 */
void privPDirReadFirstSig(PrivPrivDirBits &d, IterNum iter);

/**
 * Private directory processes a read request (Fig. 8(c)).
 * @param line_untouched all elements of the line have zero state
 */
PrivPDirResult privPDirRead(PrivPrivDirBits &d, IterNum iter,
                            bool line_untouched);

/**
 * Private directory receives a first-write signal (Fig. 9(g)).
 * Result.firstWrite set when this is the first write of the whole
 * loop by this processor (forward to shared directory).
 */
PrivPDirResult privPDirFirstWriteSig(PrivPrivDirBits &d, IterNum iter);

/** Private directory processes a write request (Fig. 9(h)). */
PrivPDirResult privPDirWrite(PrivPrivDirBits &d, IterNum iter,
                             bool line_untouched);

/** Complete a read-in at the private directory (data arrived). */
void privPDirReadInDone(PrivPrivDirBits &d, IterNum iter,
                        bool for_write);

/**
 * Shared directory receives a read-first signal or a read-in request
 * (Figs. 8(d) / 8(e)).
 */
PrivSDirResult privSDirReadFirst(PrivSharedDirBits &d, IterNum iter);

/**
 * Shared directory receives a first-write signal or a read-in-for-
 * write request (Figs. 9(i) / 9(j)).
 */
PrivSDirResult privSDirFirstWrite(PrivSharedDirBits &d, IterNum iter);

/**
 * Shared directory receives a copy-out of the value written in
 * @p iter. @return true when the value must be applied (it is the
 * latest writing iteration seen so far).
 */
bool privSDirCopyOut(PrivSharedDirBits &d, IterNum iter);

} // namespace specrt

#endif // SPECRT_SPEC_PRIV_HH
