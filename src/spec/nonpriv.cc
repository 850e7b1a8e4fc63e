#include "spec/nonpriv.hh"

#include "sim/logging.hh"

namespace specrt
{

NPCacheResult
npCacheRead(NPTagBits &t, bool line_dirty)
{
    NPCacheResult r;
    if (t.first == TagFirst::Other && t.noShr) {
        r.fail = true;
        r.reason = "read of element written by another processor";
        return r;
    }
    if (t.first == TagFirst::None) {
        t.first = TagFirst::Own;
        r.sendFirstUpdate = !line_dirty;
    } else if (t.first == TagFirst::Other && !t.rOnly) {
        t.rOnly = true;
        r.sendROnlyUpdate = !line_dirty;
    }
    return r;
}

NPCacheResult
npCacheWriteDirty(NPTagBits &t)
{
    NPCacheResult r;
    if (t.first == TagFirst::Other || t.rOnly) {
        r.fail = true;
        r.reason = "write of element read or written by another "
                   "processor";
        return r;
    }
    // No need to tell the directory: the line is dirty here, so any
    // other access must come through this cache.
    t.first = TagFirst::Own;
    t.noShr = true;
    return r;
}

NPCacheResult
npCacheLocalApply(NPTagBits &t, bool is_write)
{
    NPCacheResult r;
    if (is_write) {
        if (t.first == TagFirst::Other || t.rOnly) {
            r.fail = true;
            r.reason = "write fill of element accessed by another "
                       "processor";
            return r;
        }
        t.first = TagFirst::Own;
        t.noShr = true;
        return r;
    }
    if (t.first == TagFirst::Other && t.noShr) {
        r.fail = true;
        r.reason = "read fill of element written by another processor";
        return r;
    }
    if (t.first == TagFirst::None)
        t.first = TagFirst::Own;
    else if (t.first == TagFirst::Other)
        t.rOnly = true;
    return r;
}

NPCacheResult
npCacheFirstUpdateFail(NPTagBits &t)
{
    NPCacheResult r;
    if (t.first == TagFirst::Own && t.noShr) {
        // This processor read and then wrote the element before
        // learning it was not the first to access it.
        r.fail = true;
        r.reason = "race between two First_updates: loser already "
                   "wrote";
    }
    t.first = TagFirst::Other;
    t.rOnly = true;
    return r;
}

NPDirResult
npDirRead(NPDirBits &d, NodeId requester)
{
    NPDirResult r;
    if (d.first != requester && d.first != invalidNode && d.noShr) {
        r.fail = true;
        r.reason = "read request for element written by another "
                   "processor";
        return r;
    }
    if (d.first == invalidNode)
        d.first = requester;
    else if (d.first != requester && !d.rOnly)
        d.rOnly = true;
    return r;
}

NPDirResult
npDirWrite(NPDirBits &d, NodeId requester)
{
    NPDirResult r;
    if ((d.first != requester && d.first != invalidNode) || d.rOnly) {
        r.fail = true;
        r.reason = "write request for element accessed by another "
                   "processor";
        return r;
    }
    d.first = requester;
    d.noShr = true;
    return r;
}

NPDirResult
npDirFirstUpdate(NPDirBits &d, NodeId sender)
{
    NPDirResult r;
    if (d.noShr) {
        if (d.first == sender)
            return r; // our own earlier write set it; benign
        r.fail = true;
        r.reason = "race between a First_update and a write";
        return r;
    }
    if (d.first == invalidNode) {
        d.first = sender;
    } else if (d.first != sender) {
        // Race between two First_updates: the element has now been
        // read by two processors.
        d.rOnly = true;
        r.sendFirstUpdateFail = true;
    }
    // d.first == sender: duplicate update; ignore.
    return r;
}

NPDirResult
npDirROnlyUpdate(NPDirBits &d, NodeId sender)
{
    NPDirResult r;
    if (d.noShr) {
        if (d.first == sender)
            return r;
        r.fail = true;
        r.reason = "race between a ROnly_update and a write";
        return r;
    }
    d.rOnly = true;
    // A second ROnly_update reaching the directory is plainly
    // ignored; the sender's tag.ROnly already has the right value.
    (void)sender;
    return r;
}

uint32_t
npCombineWire(uint32_t owner_wire, uint32_t home_wire)
{
    NPWire o = npUnpack(owner_wire);
    NPWire h = npUnpack(home_wire);
    uint32_t first;
    if (o.firstCode == 0) {
        first = h.firstCode;
    } else if (o.firstCode == npWireFirstOther) {
        // The owner learned OTHER from this home, which therefore
        // knows the identity.
        first = h.firstCode != 0 ? h.firstCode : npWireFirstOther;
    } else {
        first = o.firstCode; // the owner's own (real) id
    }
    return first | ((o.noShr || h.noShr) ? 1u << 7 : 0u) |
           ((o.rOnly || h.rOnly) ? 1u << 8 : 0u);
}

NPDirResult
npDirMergeDirty(NPDirBits &d, NodeId sender, uint32_t wire)
{
    (void)sender; // identity travels inside the wire encoding
    NPDirResult r;
    NPWire w = npUnpack(wire);

    if (w.firstCode != 0) {
        NodeId id = w.firstCode == npWireFirstOther
                        ? d.first
                        : static_cast<NodeId>(w.firstCode - 1);
        if (w.firstCode == npWireFirstOther) {
            // The owner learned "someone else was first" from this
            // home, so the directory must already know who.
            SPECRT_ASSERT(d.first != invalidNode,
                          "OTHER merged into empty dir.First");
        } else if (d.first == invalidNode) {
            d.first = id;
        } else if (d.first != id) {
            r.fail = true;
            r.reason = "contradictory First merge: two first accessors";
            return r;
        }
    }
    d.noShr = d.noShr || w.noShr;
    d.rOnly = d.rOnly || w.rOnly;
    if (d.noShr && d.rOnly) {
        r.fail = true;
        r.reason = "merged state: element both written and read-shared";
    }
    return r;
}

} // namespace specrt
