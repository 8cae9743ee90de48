#include "isa/instr_class.hh"

#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace isa {

const char*
toString(InstrClass cls)
{
    switch (cls) {
      case InstrClass::ShortInt: return "ShortInt";
      case InstrClass::LongInt: return "LongInt";
      case InstrClass::FloatSimd: return "Float/SIMD";
      case InstrClass::Mem: return "Mem";
      case InstrClass::Branch: return "Branch";
      case InstrClass::Nop: return "Nop";
    }
    return "?";
}

const char*
classToken(InstrClass cls)
{
    switch (cls) {
      case InstrClass::ShortInt: return "short_int";
      case InstrClass::LongInt: return "long_int";
      case InstrClass::FloatSimd: return "float_simd";
      case InstrClass::Mem: return "mem";
      case InstrClass::Branch: return "branch";
      case InstrClass::Nop: return "nop";
    }
    return "unknown";
}

const char*
toString(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "ADD";
      case Opcode::Sub: return "SUB";
      case Opcode::And: return "AND";
      case Opcode::Orr: return "ORR";
      case Opcode::Eor: return "EOR";
      case Opcode::Lsl: return "LSL";
      case Opcode::Lsr: return "LSR";
      case Opcode::Mov: return "MOV";
      case Opcode::Cmp: return "CMP";
      case Opcode::AddWrap: return "ADDWRAP";
      case Opcode::Mul: return "MUL";
      case Opcode::MAdd: return "MADD";
      case Opcode::SMull: return "SMULL";
      case Opcode::UDiv: return "UDIV";
      case Opcode::FAdd: return "FADD";
      case Opcode::FMul: return "FMUL";
      case Opcode::FDiv: return "FDIV";
      case Opcode::FMAdd: return "FMADD";
      case Opcode::FSqrt: return "FSQRT";
      case Opcode::VAdd: return "VADD";
      case Opcode::VMul: return "VMUL";
      case Opcode::VFma: return "VFMA";
      case Opcode::VAnd: return "VAND";
      case Opcode::Load: return "LDR";
      case Opcode::Store: return "STR";
      case Opcode::LoadPair: return "LDP";
      case Opcode::StorePair: return "STP";
      case Opcode::Branch: return "B";
      case Opcode::BranchCond: return "BCC";
      case Opcode::Nop: return "NOP";
    }
    return "?";
}

InstrClass
instrClassFromString(std::string_view s)
{
    const std::string t = toLower(trim(s));
    if (t == "int" || t == "shortint" || t == "integer")
        return InstrClass::ShortInt;
    if (t == "longint" || t == "long_int" || t == "long")
        return InstrClass::LongInt;
    if (t == "float" || t == "simd" || t == "float/simd" || t == "fp" ||
        t == "vector")
        return InstrClass::FloatSimd;
    if (t == "mem" || t == "memory" || t == "load" || t == "store")
        return InstrClass::Mem;
    if (t == "branch" || t == "control")
        return InstrClass::Branch;
    if (t == "nop" || t == "pad")
        return InstrClass::Nop;
    fatal("unknown instruction type '", std::string(s), "'");
}

InstrClass
defaultClass(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Orr:
      case Opcode::Eor:
      case Opcode::Lsl:
      case Opcode::Lsr:
      case Opcode::Mov:
      case Opcode::Cmp:
      case Opcode::AddWrap:
        return InstrClass::ShortInt;
      case Opcode::Mul:
      case Opcode::MAdd:
      case Opcode::SMull:
      case Opcode::UDiv:
        return InstrClass::LongInt;
      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FMAdd:
      case Opcode::FSqrt:
      case Opcode::VAdd:
      case Opcode::VMul:
      case Opcode::VFma:
      case Opcode::VAnd:
        return InstrClass::FloatSimd;
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::LoadPair:
      case Opcode::StorePair:
        return InstrClass::Mem;
      case Opcode::Branch:
      case Opcode::BranchCond:
        return InstrClass::Branch;
      case Opcode::Nop:
        return InstrClass::Nop;
    }
    return InstrClass::Nop;
}

bool
opcodeFromMnemonic(std::string_view mnemonic, Opcode& out)
{
    const std::string m = toLower(trim(mnemonic));
    struct Entry { const char* name; Opcode op; };
    static const Entry table[] = {
        // ARM and generic spellings.
        {"add", Opcode::Add}, {"sub", Opcode::Sub}, {"and", Opcode::And},
        {"orr", Opcode::Orr}, {"eor", Opcode::Eor}, {"lsl", Opcode::Lsl},
        {"lsr", Opcode::Lsr}, {"mov", Opcode::Mov}, {"cmp", Opcode::Cmp},
        {"addwrap", Opcode::AddWrap},
        {"mul", Opcode::Mul}, {"madd", Opcode::MAdd},
        {"mla", Opcode::MAdd}, {"smull", Opcode::SMull},
        {"udiv", Opcode::UDiv}, {"sdiv", Opcode::UDiv},
        {"fadd", Opcode::FAdd}, {"fmul", Opcode::FMul},
        {"fdiv", Opcode::FDiv}, {"fmadd", Opcode::FMAdd},
        {"fmla", Opcode::FMAdd}, {"fsqrt", Opcode::FSqrt},
        {"vadd", Opcode::VAdd}, {"vmul", Opcode::VMul},
        {"vfma", Opcode::VFma}, {"vand", Opcode::VAnd},
        {"ldr", Opcode::Load}, {"str", Opcode::Store},
        {"ldp", Opcode::LoadPair}, {"stp", Opcode::StorePair},
        {"b", Opcode::Branch}, {"bne", Opcode::BranchCond},
        {"beq", Opcode::BranchCond}, {"bcc", Opcode::BranchCond},
        {"nop", Opcode::Nop},
        // x86 spellings.
        {"xor", Opcode::Eor}, {"or", Opcode::Orr}, {"shl", Opcode::Lsl},
        {"shr", Opcode::Lsr}, {"imul", Opcode::Mul},
        {"div", Opcode::UDiv}, {"idiv", Opcode::UDiv},
        {"addsd", Opcode::FAdd}, {"mulsd", Opcode::FMul},
        {"divsd", Opcode::FDiv}, {"sqrtsd", Opcode::FSqrt},
        {"addps", Opcode::VAdd}, {"addpd", Opcode::VAdd},
        {"mulps", Opcode::VMul}, {"mulpd", Opcode::VMul},
        {"vfmadd231pd", Opcode::VFma}, {"vfmadd231ps", Opcode::VFma},
        {"andps", Opcode::VAnd}, {"pand", Opcode::VAnd},
        {"movq", Opcode::Load}, {"jmp", Opcode::Branch},
        {"jne", Opcode::BranchCond}, {"jnz", Opcode::BranchCond},
    };
    for (const Entry& e : table) {
        if (m == e.name) {
            out = e.op;
            return true;
        }
    }
    return false;
}

bool
isLoad(Opcode op)
{
    return op == Opcode::Load || op == Opcode::LoadPair;
}

bool
isStore(Opcode op)
{
    return op == Opcode::Store || op == Opcode::StorePair;
}

bool
isBranch(Opcode op)
{
    return op == Opcode::Branch || op == Opcode::BranchCond;
}

} // namespace isa
} // namespace gest
