#include "runtime/checkpoint.hh"

namespace specrt
{

void
genCopyProgram(int src_id, int dst_id, uint64_t lo, uint64_t hi,
               IterProgram &out)
{
    for (uint64_t i = lo; i < hi; ++i) {
        out.push_back(opLoad(0, src_id, static_cast<int64_t>(i)));
        out.push_back(opStore(dst_id, static_cast<int64_t>(i), 0));
    }
}

} // namespace specrt
