#include "isa/operand.hh"

#include "util/logging.hh"

namespace gest {
namespace isa {

OperandDef
OperandDef::makeRegisters(std::string id, std::vector<std::string> names)
{
    if (names.empty())
        fatal("operand '", id, "' has an empty register list");
    OperandDef def;
    def._id = std::move(id);
    def._kind = OperandKind::Register;
    def._registers = std::move(names);
    def._parsed.resize(def._registers.size());
    def._parseOk.resize(def._registers.size());
    for (std::size_t i = 0; i < def._registers.size(); ++i)
        def._parseOk[i] = parseRegister(def._registers[i], def._parsed[i]);
    return def;
}

OperandDef
OperandDef::makeImmediate(std::string id, std::int64_t min, std::int64_t max,
                          std::int64_t stride)
{
    if (stride <= 0)
        fatal("operand '", id, "' has non-positive stride ", stride);
    if (max < min)
        fatal("operand '", id, "' has max ", max, " below min ", min);
    OperandDef def;
    def._id = std::move(id);
    def._kind = OperandKind::Immediate;
    def._min = min;
    def._max = max;
    def._stride = stride;
    return def;
}

std::size_t
OperandDef::valueCount() const
{
    if (_kind == OperandKind::Register)
        return _registers.size();
    return static_cast<std::size_t>((_max - _min) / _stride) + 1;
}

std::string
OperandDef::renderValue(std::size_t index) const
{
    if (_kind == OperandKind::Register)
        return registerName(index);
    return std::to_string(immediateValue(index));
}

std::int64_t
OperandDef::immediateValue(std::size_t index) const
{
    if (_kind != OperandKind::Immediate)
        panic("immediateValue on register operand '", _id, "'");
    if (index >= valueCount())
        panic("immediate index ", index, " out of range for '", _id, "'");
    return _min + static_cast<std::int64_t>(index) * _stride;
}

const std::string&
OperandDef::registerName(std::size_t index) const
{
    if (_kind != OperandKind::Register)
        panic("registerName on immediate operand '", _id, "'");
    if (index >= _registers.size())
        panic("register index ", index, " out of range for '", _id, "'");
    return _registers[index];
}

bool
OperandDef::parsedRegister(std::size_t index, RegRef& out) const
{
    if (_kind != OperandKind::Register || index >= _registers.size())
        return false;
    if (!_parseOk[index])
        return false;
    out = _parsed[index];
    return true;
}

namespace {

/** Immediate pools fold into at most this many coverage bins. */
constexpr std::size_t maxImmediateBins = 8;

} // namespace

std::size_t
operandBinCount(const OperandDef& def)
{
    const std::size_t n = def.valueCount();
    if (def.kind() == OperandKind::Register)
        return n;
    return n < maxImmediateBins ? n : maxImmediateBins;
}

std::size_t
operandBin(const OperandDef& def, std::uint32_t choice)
{
    const std::size_t n = def.valueCount();
    if (n == 0)
        return 0;
    std::size_t c = choice;
    if (c >= n)
        c = n - 1;
    if (def.kind() == OperandKind::Register)
        return c;
    // Equal-width partition of the value indices: bin = c * bins / n is
    // monotone and onto.
    return c * operandBinCount(def) / n;
}

} // namespace isa
} // namespace gest
