/**
 * @file
 * Code generation for the software LRPD scheme's run-time cost.
 *
 * Polaris would compile marking, merging, and analysis instructions
 * into the loop; here we inject the equivalent micro-ISA ops so the
 * software scheme pays its overhead through the same simulated
 * memory system (extra instructions, extra misses, extra conflicts
 * -- the effects the paper measures in Figure 12).
 *
 * The semantic verdict comes from lrpd.hh, whose shadows the loop
 * executor marks from the loop's accesses as they happen; the
 * generated shadow accesses model cost, touching real shadow memory
 * at the right addresses and with the right sharing pattern.
 *
 * The merge, analysis and zero-out programs are generated a chunk at
 * a time while they run: each generator emits the ops of an element
 * range [lo, hi), and a whole program is the concatenation of its
 * chunks. A generator's one-off ops go only in the chunk that opens
 * (@p first) or closes (@p last) its range.
 *
 * Register convention: r27-r31 are reserved for instrumentation
 * (workload programs must keep to r0-r26).
 */

#ifndef SPECRT_LRPD_LRPD_CODEGEN_HH
#define SPECRT_LRPD_LRPD_CODEGEN_HH

#include <map>
#include <vector>

#include "runtime/isa.hh"
#include "sim/types.hh"

namespace specrt
{

/** Shadow-array binding ids for one tested array (-1 = absent). */
struct ShadowIds
{
    int aw = -1;
    int ar = -1;
    int anp = -1;
    /** Read-in variant's Awmin/Ar1st shadow (section 2.2.3). */
    int awmin = -1;
};

/** How to instrument accesses to one tested array. */
struct InstrumentInfo
{
    ShadowIds shadows;
    /** Processor-wise test: byte-packed bitmap shadows, indexed by
     *  element/8. */
    bool procWise = false;
    /** Privatized array: the Anp shadow is also marked. */
    bool privatized = false;
};

/**
 * Rewrite an iteration body, appending marking ops after every
 * access to a tested array.
 *
 * @param in        the original body
 * @param out       receives the instrumented body (appended)
 * @param iter      iteration number (stored into the shadows)
 * @param per_array instrumentation map keyed by arrayId
 */
void lrpdInstrument(const IterProgram &in, IterProgram &out,
                    IterNum iter,
                    const std::map<int, InstrumentInfo> &per_array);

/** One shadow kind to merge: every processor's private copy plus
 *  the global destination. */
struct MergeKind
{
    std::vector<int> perProcIds;
    int globalId = -1;
};

/**
 * Emit the merge-phase program for one processor: for each element
 * in [lo, hi), OR/aggregate every processor's private shadow value
 * into the global shadow. This is the part of the software scheme
 * whose per-processor work stays constant as processors are added
 * (the scalability limiter of section 6.3).
 */
void lrpdGenMerge(IterProgram &out, const std::vector<MergeKind> &kinds,
                  uint64_t lo, uint64_t hi);

/**
 * Emit the analysis-phase program for one processor: scan the global
 * shadows over [lo, hi) computing any(Aw & Ar), Atm, and (for
 * privatized arrays) any(Aw & Anp). The @p last chunk ends with the
 * final reduction bookkeeping.
 */
void lrpdGenAnalysis(IterProgram &out, const std::vector<int> &global_ids,
                     uint64_t lo, uint64_t hi, bool last);

/**
 * Emit the zero-out program clearing a processor's private shadows
 * before the loop ("shadow array zero-out" of section 6.3). The
 * @p first chunk loads the zero into the shuttle register.
 */
void lrpdGenZeroOut(IterProgram &out, const std::vector<int> &shadow_ids,
                    uint64_t lo, uint64_t hi, bool first);

} // namespace specrt

#endif // SPECRT_LRPD_LRPD_CODEGEN_HH
