/**
 * @file
 * Reference implementation of the software LRPD test (paper
 * section 2.2, after Rauchwerger & Padua).
 *
 * This is the algorithmic software scheme itself: per-processor
 * private shadow arrays updated by an online marking phase, a merge
 * across processors, and the analysis phase computing the verdict.
 * The simulated cost of these operations is modeled separately by
 * lrpd_codegen.hh; the loop executor uses this class to obtain the
 * verdict while the generated code provides the timing.
 *
 * Marking is exact for the paper's definitions: a write in iteration
 * i cancels only an Ar mark made earlier in the same iteration
 * (shadow elements hold iteration numbers, so the cancellation never
 * destroys marks from older iterations -- this is why the paper
 * stores iteration numbers instead of single bits).
 */

#ifndef SPECRT_LRPD_LRPD_HH
#define SPECRT_LRPD_LRPD_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "spec/oracle.hh"

namespace specrt
{

/** Aggregate outcome of the analysis phase. */
struct LrpdAnalysis
{
    LrpdVerdict verdict = LrpdVerdict::NotParallel;
    uint64_t atw = 0;        ///< total (element, iteration) writes
    uint64_t atm = 0;        ///< elements with the write shadow set
    bool awAndAr = false;    ///< any(Aw & Ar)
    bool awAndAnp = false;   ///< any(Aw & Anp)
    /** Read-in variant: any element whose highest read-first
     *  iteration exceeds its lowest writing iteration (Awmin). */
    bool r1stAfterWmin = false;
};

/** The LRPD test over one array. */
class LrpdTest
{
  public:
    /**
     * @param elems      number of elements of the array under test
     * @param num_procs  processors participating
     * @param privatized the array is speculatively privatized (the
     *                   Anp shadow array participates in analysis)
     * @param read_in    the section 2.2.3 extension: an extra Awmin
     *                   shadow (lowest writing iteration) lets the
     *                   test accept loops whose privatized elements
     *                   are read before any iteration writes them
     *                   (read-in) -- the software counterpart of the
     *                   hardware MaxR1st/MinW test
     */
    LrpdTest(uint64_t elems, int num_procs, bool privatized,
             bool read_in = false);

    /** Marking: processor @p p reads element @p e in iteration @p it. */
    void markRead(int p, IterNum it, uint64_t e);

    /** Marking: processor @p p writes element @p e in iteration @p it. */
    void markWrite(int p, IterNum it, uint64_t e);

    /**
     * Merge the private shadows and run the analysis phase
     * (paper steps 2(a)-2(e)).
     */
    LrpdAnalysis analyze() const;

    /**
     * Run a whole trace through marking (iteration-wise when
     * @p proc_wise is false; the processor becomes the
     * super-iteration otherwise) and analyze. The executor marks
     * online as the loop runs; this is the reference its verdicts
     * are tested against.
     */
    static LrpdAnalysis run(const std::vector<AccessEvent> &trace,
                            uint64_t elems, int num_procs,
                            bool privatized, bool proc_wise,
                            bool read_in = false);

  private:
    struct Shadow
    {
        std::vector<IterNum> aw;   ///< last writing iteration (0=never)
        std::vector<IterNum> ar;   ///< Ar mark (iteration number)
        std::vector<uint8_t> anp;  ///< Anp mark
        /** Read-in variant: lowest writing iteration (0 = none). */
        std::vector<IterNum> awmin;
        /** Read-in variant: highest read-first iteration. */
        std::vector<IterNum> ar1st;
        uint64_t atw = 0;
    };

    uint64_t elems;
    bool privatized;
    bool readIn;
    std::vector<Shadow> shadows; ///< one per processor
};

} // namespace specrt

#endif // SPECRT_LRPD_LRPD_HH
