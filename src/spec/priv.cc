#include "spec/priv.hh"

#include "sim/logging.hh"

namespace specrt
{

PrivCacheResult
privCacheRead(PrivTagBits &t, IterNum iter)
{
    PrivCacheResult r;
    PrivTagBits eff = privEffective(t, iter);
    if (!eff.read1st && !eff.write) {
        eff.read1st = true;
        r.readFirst = true;
    }
    t = eff;
    return r;
}

PrivCacheResult
privCacheWrite(PrivTagBits &t, IterNum iter)
{
    PrivCacheResult r;
    PrivTagBits eff = privEffective(t, iter);
    if (!eff.write) {
        eff.write = true;
        r.firstWrite = true;
    }
    t = eff;
    return r;
}

void
privPDirReadFirstSig(PrivPrivDirBits &d, IterNum iter)
{
    d.pMaxR1st = iter;
}

PrivPDirResult
privPDirRead(PrivPrivDirBits &d, IterNum iter, bool line_untouched)
{
    PrivPDirResult r;
    if (line_untouched) {
        SPECRT_ASSERT(d.untouched(), "untouched line, touched element");
        r.needReadIn = true;
        return r;
    }
    if (d.pMaxR1st < iter && d.pMaxW < iter) {
        r.readFirst = true;
        d.pMaxR1st = iter;
    }
    return r;
}

PrivPDirResult
privPDirFirstWriteSig(PrivPrivDirBits &d, IterNum iter)
{
    PrivPDirResult r;
    if (d.pMaxW == 0) {
        // First write to the element in the whole loop.
        d.pMaxW = iter;
        r.firstWrite = true;
    } else if (d.pMaxW < iter) {
        d.pMaxW = iter;
    }
    return r;
}

PrivPDirResult
privPDirWrite(PrivPrivDirBits &d, IterNum iter, bool line_untouched)
{
    PrivPDirResult r;
    if (d.pMaxW == 0) {
        if (line_untouched) {
            r.needReadIn = true;
            return r;
        }
        r.firstWrite = true;
        d.pMaxW = iter;
        return r;
    }
    if (d.pMaxW < iter)
        d.pMaxW = iter;
    return r;
}

void
privPDirReadInDone(PrivPrivDirBits &d, IterNum iter, bool for_write)
{
    if (for_write)
        d.pMaxW = iter;
    else
        d.pMaxR1st = iter;
}

PrivSDirResult
privSDirReadFirst(PrivSharedDirBits &d, IterNum iter)
{
    PrivSDirResult r;
    if (iter > d.minW) {
        r.fail = true;
        r.reason = "read-first iteration after a writing iteration "
                   "(flow dependence)";
        return r;
    }
    if (iter > d.maxR1st)
        d.maxR1st = iter;
    return r;
}

PrivSDirResult
privSDirFirstWrite(PrivSharedDirBits &d, IterNum iter)
{
    PrivSDirResult r;
    if (iter < d.maxR1st) {
        r.fail = true;
        r.reason = "writing iteration before a read-first iteration "
                   "(flow dependence)";
        return r;
    }
    if (iter < d.minW)
        d.minW = iter;
    return r;
}

bool
privSDirCopyOut(PrivSharedDirBits &d, IterNum iter)
{
    if (iter >= d.lastCopyIter) {
        d.lastCopyIter = iter;
        return true;
    }
    return false;
}

} // namespace specrt
