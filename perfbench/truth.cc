#include "truth.h"

#include <algorithm>
#include <unordered_map>

#include "mir/printer.h"
#include "types/typeio.h"

namespace perfbench {

using namespace manta;

namespace {

/**
 * "func<US>ref" for values inside a function. Constants and global
 * addresses belong to no function: their key is "<US>ref", and the
 * parser may print one generated value as several parsed ones.
 */
std::string
valueKey(const Module &module, ValueId v)
{
    const FuncId owner = module.owningFunc(v);
    std::string key;
    if (owner.valid())
        key = module.nameOf(owner);
    key += '\x1f';
    key += printValueRef(module, v);
    return key;
}

bool
scoped(const std::string &key)
{
    return key.front() != '\x1f';
}

} // namespace

PortableTruth::PortableTruth(const GeneratedProgram &program)
{
    const Module &module = *program.module;
    entries_.reserve(program.truth.valueTypes.size());
    for (const auto &[v, type] : program.truth.valueTypes)
        entries_.push_back(Entry{valueKey(module, v), type});
    // The truth map's iteration order is unspecified; sorting keeps
    // type interning in the parsed module deterministic.
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry &a, const Entry &b) {
                  return a.key != b.key ? a.key < b.key
                                        : a.type.raw() < b.type.raw();
              });
    // Values sharing a key are one entry when they agree on the type;
    // when they disagree the entry is ambiguous.
    std::vector<Entry> merged;
    for (Entry &e : entries_) {
        if (!merged.empty() && merged.back().key == e.key) {
            if (merged.back().type != e.type)
                merged.back().type = TypeRef::invalid();
            continue;
        }
        merged.push_back(std::move(e));
    }
    entries_ = std::move(merged);
    for (Entry &e : entries_) {
        if (e.type.valid())
            e.type = transferType(module.types(), e.type, types_);
    }
}

std::size_t
PortableTruth::mapOnto(Module &parsed, GroundTruth &out) const
{
    std::unordered_map<std::string, std::vector<ValueId>> index;
    index.reserve(parsed.numValues());
    for (std::size_t i = 0; i < parsed.numValues(); ++i) {
        const ValueId v(static_cast<ValueId::RawType>(i));
        index[valueKey(parsed, v)].push_back(v);
    }

    std::size_t unmapped = 0;
    for (const Entry &entry : entries_) {
        const auto it = index.find(entry.key);
        if (it == index.end() || !entry.type.valid() ||
            (scoped(entry.key) && it->second.size() != 1)) {
            ++unmapped;
            continue;
        }
        const TypeRef type = transferType(types_, entry.type, parsed.types());
        for (const ValueId v : it->second)
            out.valueTypes[v] = type;
    }
    return unmapped;
}

} // namespace perfbench
