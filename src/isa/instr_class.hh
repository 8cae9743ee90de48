/**
 * @file
 * Instruction classification and semantic opcodes.
 *
 * The paper classifies instructions as short-latency integer, long-latency
 * integer, float/SIMD, memory and branch (Table III / Table IV breakdowns).
 * InstrClass carries that classification. Opcode is the *semantic* tag the
 * simulator executes; a user-defined XML instruction is bound to an Opcode
 * either through an explicit `semantic` attribute or by looking up its
 * mnemonic in the built-in decoder table.
 */

#ifndef GEST_ISA_INSTR_CLASS_HH
#define GEST_ISA_INSTR_CLASS_HH

#include <string>
#include <string_view>

namespace gest {
namespace isa {

/** Coarse instruction class used for breakdowns and the power model. */
enum class InstrClass
{
    ShortInt,  ///< 1-cycle integer ALU (ADD, SUB, EOR, ...)
    LongInt,   ///< multi-cycle integer (MUL, MADD, DIV, ...)
    FloatSimd, ///< scalar FP and vector/SIMD
    Mem,       ///< loads and stores
    Branch,    ///< control flow
    Nop,       ///< padding
};

/** Number of InstrClass values (for breakdown arrays). */
constexpr int numInstrClasses = 6;

/** Semantic opcode executed by the simulator. */
enum class Opcode
{
    // Short-latency integer.
    Add, Sub, And, Orr, Eor, Lsl, Lsr, Mov, Cmp,
    /**
     * Pointer advance with wraparound: the destination register is
     * advanced by the immediate and wrapped into the simulator's data
     * buffer. Used by the LLC/DRAM stress extension (§VII) to stride
     * load/store streams through a footprint larger than the caches.
     */
    AddWrap,
    // Long-latency integer.
    Mul, MAdd, SMull, UDiv,
    // Scalar floating point.
    FAdd, FMul, FDiv, FMAdd, FSqrt,
    // SIMD (128-bit vector).
    VAdd, VMul, VFma, VAnd,
    // Memory.
    Load, Store, LoadPair, StorePair,
    // Control flow.
    Branch, BranchCond,
    // Padding.
    Nop,
};

/** @return a stable display name, e.g. "Float/SIMD". */
const char* toString(InstrClass cls);

/** @return the artifact-safe token, e.g. "float_simd". */
const char* classToken(InstrClass cls);

/** @return the mnemonic-ish name of an opcode, e.g. "FMUL". */
const char* toString(Opcode op);

/** Parse a class name ("int", "longint", "float", "simd", "mem", ...). */
InstrClass instrClassFromString(std::string_view s);

/** The default class an opcode belongs to. */
InstrClass defaultClass(Opcode op);

/**
 * Look up the semantic opcode for a mnemonic (case-insensitive). Knows the
 * common ARM (A32/A64) and x86 spellings. @return true on success.
 */
bool opcodeFromMnemonic(std::string_view mnemonic, Opcode& out);

/** @return true for opcodes that read memory. */
bool isLoad(Opcode op);

/** @return true for opcodes that write memory. */
bool isStore(Opcode op);

/** @return true for control-flow opcodes. */
bool isBranch(Opcode op);

} // namespace isa
} // namespace gest

#endif // GEST_ISA_INSTR_CLASS_HH
