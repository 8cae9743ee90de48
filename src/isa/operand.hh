/**
 * @file
 * Operand definitions.
 *
 * An operand definition names the finite set of values an instruction slot
 * may take: either a list of register names or an immediate range described
 * by min/max/stride (the paper's Figure 4: 0..256 in strides of 8 gives 33
 * values). Operand definitions are shared between instructions through
 * their ids.
 */

#ifndef GEST_ISA_OPERAND_HH
#define GEST_ISA_OPERAND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/registers.hh"

namespace gest {
namespace isa {

/** Whether an operand draws from registers or an immediate range. */
enum class OperandKind
{
    Register,
    Immediate,
};

/**
 * A finite pool of values for one instruction operand slot.
 */
class OperandDef
{
  public:
    /** Build a register operand from a list of register names. */
    static OperandDef makeRegisters(std::string id,
                                    std::vector<std::string> names);

    /** Build an immediate operand covering min..max in steps of stride. */
    static OperandDef makeImmediate(std::string id, std::int64_t min,
                                    std::int64_t max, std::int64_t stride);

    /** Unique id referenced by instruction definitions. */
    const std::string& id() const { return _id; }

    /** Register or immediate. */
    OperandKind kind() const { return _kind; }

    /** Number of distinct values this operand can take. */
    std::size_t valueCount() const;

    /** Render value @p index as source text ("x3" or "24"). */
    std::string renderValue(std::size_t index) const;

    /** The numeric value of immediate choice @p index. */
    std::int64_t immediateValue(std::size_t index) const;

    /** The register name of register choice @p index. */
    const std::string& registerName(std::size_t index) const;

    /**
     * The parsed register of choice @p index.
     * @return false if the name is not a recognizable register.
     */
    bool parsedRegister(std::size_t index, RegRef& out) const;

    /** Immediate range lower bound (Immediate kind only). */
    std::int64_t immMin() const { return _min; }

    /** Immediate range upper bound (Immediate kind only). */
    std::int64_t immMax() const { return _max; }

    /** Immediate range stride (Immediate kind only). */
    std::int64_t immStride() const { return _stride; }

  private:
    OperandDef() = default;

    std::string _id;
    OperandKind _kind = OperandKind::Register;
    std::vector<std::string> _registers;
    std::vector<RegRef> _parsed;
    std::vector<bool> _parseOk;
    std::int64_t _min = 0;
    std::int64_t _max = 0;
    std::int64_t _stride = 1;
};

/**
 * Value-bin universe of one operand slot, for the coverage ledger:
 * every register is its own bin (port and bank behavior depend on the
 * exact register), immediate ranges fold into at most 8 equal-width
 * bins (what matters for stress behavior is the magnitude band — a
 * stride or offset class — not the exact constant).
 */
std::size_t operandBinCount(const OperandDef& def);

/** Bin of value choice @p choice; always < operandBinCount(def). */
std::size_t operandBin(const OperandDef& def, std::uint32_t choice);

} // namespace isa
} // namespace gest

#endif // GEST_ISA_OPERAND_HH
