#include "runtime/isa.hh"

#include <sstream>

#include "sim/logging.hh"

namespace specrt
{

namespace
{

/** An index operand as text: a register or an immediate. */
std::ostream &
operator<<(std::ostream &os, const IndexOperand &idx)
{
    if (idx.isReg)
        return os << 'r' << idx.reg;
    return os << idx.imm;
}

} // namespace

std::string
opToString(const Op &op)
{
    std::ostringstream os;
    switch (op.kind) {
      case OpKind::Imm:
        os << "imm r" << op.dst << " = " << op.imm;
        break;
      case OpKind::Alu:
        os << "alu r" << op.dst << " = r" << op.srcA << " op" << " r"
           << op.srcB;
        break;
      case OpKind::Load:
        os << "load r" << op.dst << " = a" << op.arrayId << "["
           << op.index << "]";
        break;
      case OpKind::Store:
        os << "store a" << op.arrayId << "[" << op.index << "] = r"
           << op.srcA;
        break;
      case OpKind::Busy:
        os << "busy " << op.cycles;
        break;
    }
    return os.str();
}

} // namespace specrt
