#include "mir/serialize.h"

#include "types/typeio.h"

namespace manta {

namespace {

template <typename Tag>
void
putId(ByteWriter &out, Id<Tag> id)
{
    out.u32(id.raw());
}

template <typename Tag>
Id<Tag>
getId(ByteReader &in)
{
    return Id<Tag>(in.u32());
}

/** Validate a decoded id: invalid sentinel or in-range index. */
template <typename Tag>
bool
idOk(Id<Tag> id, std::size_t pool_size)
{
    return !id.valid() || id.index() < pool_size;
}

/** A slot that must name a real element: the sentinel is refused. */
template <typename Tag>
bool
realIdOk(Id<Tag> id, std::size_t pool_size)
{
    return id.valid() && id.index() < pool_size;
}

/**
 * Externals reference interned types; pool them first so the decoder
 * can rebuild the TypeTable before the externs pool. Extern signatures
 * are small and structural, so they are written element-wise.
 */
void
writeTypesAndExterns(const Module &module, ByteWriter &out)
{
    TypePoolWriter types(module.types());
    ByteWriter externs;
    externs.u32(static_cast<std::uint32_t>(module.numExterns()));
    for (std::size_t i = 0; i < module.numExterns(); ++i) {
        const External &e =
            module.external(ExternId(static_cast<std::uint32_t>(i)));
        externs.str(module.str(e.name));
        externs.u32(static_cast<std::uint32_t>(e.paramTypes.size()));
        for (const TypeRef t : e.paramTypes)
            externs.u32(types.index(t));
        externs.u32(types.index(e.retType));
        externs.u8(static_cast<std::uint8_t>(e.role));
    }
    types.write(out);
    out.raw(externs.bytes());
}

bool
readTypesAndExterns(ByteReader &in, Module &out)
{
    TypePoolReader types;
    if (!types.read(in, out.types()))
        return false;

    const std::uint32_t num_externs = in.u32();
    for (std::uint32_t i = 0; i < num_externs && in.ok(); ++i) {
        External e;
        e.name = out.internName(in.str());
        const std::uint32_t num_params = in.u32();
        for (std::uint32_t p = 0; p < num_params && in.ok(); ++p) {
            const std::uint32_t idx = in.u32();
            const TypeRef t = types.type(idx);
            if (idx != kNoTypeIndex && !t.valid()) {
                in.fail();
                break;
            }
            e.paramTypes.push_back(t);
        }
        const std::uint32_t ret = in.u32();
        e.retType = types.type(ret);
        if (ret != kNoTypeIndex && !e.retType.valid())
            in.fail();
        e.role = static_cast<ExternRole>(in.u8());
        if (!in.ok())
            break;
        out.addExternal(std::move(e));
    }
    return in.ok();
}

/**
 * Cross-pool id validation: every stored id must be the invalid
 * sentinel or index into its (now fully sized) pool. Slots that always
 * name a real element - a function's blocks, a block's instructions,
 * operands and br/jmp targets, which verifyModule dereferences - must
 * not hold the sentinel either. This keeps a corrupted-but-well-framed
 * snapshot from crashing the verifier or later passes.
 */
bool
validateModuleIds(const Module &out)
{
    const std::size_t num_names = out.names().size();
    for (std::size_t i = 0; i < out.numExterns(); ++i) {
        if (!idOk(out.external(ExternId(static_cast<std::uint32_t>(i))).name,
                  num_names)) {
            return false;
        }
    }
    for (std::size_t i = 0; i < out.numGlobals(); ++i) {
        if (!idOk(out.global(GlobalId(static_cast<std::uint32_t>(i))).name,
                  num_names)) {
            return false;
        }
    }
    for (std::size_t i = 0; i < out.numFuncs(); ++i) {
        const Function &f = out.func(FuncId(static_cast<std::uint32_t>(i)));
        if (!idOk(f.name, num_names))
            return false;
        for (const ValueId p : f.params)
            if (!idOk(p, out.numValues()))
                return false;
        for (const BlockId b : f.blocks)
            if (!realIdOk(b, out.numBlocks()))
                return false;
    }
    for (std::size_t i = 0; i < out.numBlocks(); ++i) {
        const BasicBlock &b =
            out.block(BlockId(static_cast<std::uint32_t>(i)));
        if (!idOk(b.func, out.numFuncs()) || !idOk(b.name, num_names))
            return false;
        for (const InstId inst : b.insts)
            if (!realIdOk(inst, out.numInsts()))
                return false;
    }
    for (std::size_t i = 0; i < out.numValues(); ++i) {
        const Value &v = out.value(ValueId(static_cast<std::uint32_t>(i)));
        if (!idOk(v.argFunc, out.numFuncs()) ||
                !idOk(v.inst, out.numInsts()) ||
                !idOk(v.global, out.numGlobals()) ||
                !idOk(v.funcAddr, out.numFuncs()) ||
                !idOk(v.name, num_names)) {
            return false;
        }
    }
    for (std::size_t i = 0; i < out.numInsts(); ++i) {
        const Instruction &inst =
            out.inst(InstId(static_cast<std::uint32_t>(i)));
        if (!idOk(inst.result, out.numValues()) ||
                !idOk(inst.callee, out.numFuncs()) ||
                !idOk(inst.external, out.numExterns()) ||
                !idOk(inst.thenBlock, out.numBlocks()) ||
                !idOk(inst.elseBlock, out.numBlocks()) ||
                !idOk(inst.parent, out.numBlocks())) {
            return false;
        }
        const bool branch = inst.op == Opcode::Br || inst.op == Opcode::Jmp;
        if (branch && !realIdOk(inst.thenBlock, out.numBlocks()))
            return false;
        if (inst.op == Opcode::Br &&
                !realIdOk(inst.elseBlock, out.numBlocks()))
            return false;
        for (const ValueId op : out.operands(inst))
            if (!realIdOk(op, out.numValues()))
                return false;
        for (const BlockId b : out.phiBlocks(inst))
            if (!idOk(b, out.numBlocks()))
                return false;
    }
    return true;
}

/** Bulk-dump a vector of trivially-copyable records. */
template <typename T>
void
putPool(ByteWriter &out, const std::vector<T> &pool)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "pool dumps require relocatable records");
    out.u32(static_cast<std::uint32_t>(pool.size()));
    out.blob(pool.data(), pool.size() * sizeof(T));
}

/** Bulk-load a vector of trivially-copyable records. */
template <typename T>
bool
getPool(ByteReader &in, std::vector<T> &pool)
{
    const std::uint32_t count = in.u32();
    if (in.remaining() / sizeof(T) < count) {
        in.fail();
        return false;
    }
    pool.resize(count);
    return in.blob(pool.data(), count * sizeof(T));
}

/**
 * Host byte-order marker: pool dumps are host-endian by design, so the
 * mark is dumped in host order too (a blob, not the little-endian
 * u32) and reads back equal only on a host of the same byte order.
 */
constexpr std::uint32_t kEndianMark = 0x01020304u;

} // namespace

void
serializeModulePools(const Module &module, ByteWriter &out)
{
    // Layout header: the pool dump is host-endian and layout-exact, so
    // the loader rejects (and the caller re-analyzes cold) on any
    // record-shape mismatch.
    out.blob(&kEndianMark, sizeof kEndianMark);
    out.u32(static_cast<std::uint32_t>(sizeof(Value)));
    out.u32(static_cast<std::uint32_t>(sizeof(Instruction)));
    out.u32(static_cast<std::uint32_t>(sizeof(NameSpan)));

    // Name arena first: everything after refers to names by handle.
    const StringInterner &names = module.names();
    out.u32(static_cast<std::uint32_t>(names.arenaBytes()));
    out.blob(names.arena().data(), names.arenaBytes());
    putPool(out, names.spans());

    writeTypesAndExterns(module, out);

    out.u32(static_cast<std::uint32_t>(module.numGlobals()));
    for (std::size_t i = 0; i < module.numGlobals(); ++i) {
        const Global &g =
            module.global(GlobalId(static_cast<std::uint32_t>(i)));
        putId(out, g.name);
        out.u32(g.sizeBytes);
        out.u8(g.isStringLiteral ? 1 : 0);
        out.str(g.stringValue);
    }

    out.u32(static_cast<std::uint32_t>(module.numFuncs()));
    for (std::size_t i = 0; i < module.numFuncs(); ++i) {
        const Function &f = module.func(FuncId(static_cast<std::uint32_t>(i)));
        putId(out, f.name);
        putPool(out, f.params);
        putPool(out, f.blocks);
        out.u8(f.addressTaken ? 1 : 0);
        out.u8(f.isVariadicStub ? 1 : 0);
    }

    out.u32(static_cast<std::uint32_t>(module.numBlocks()));
    for (std::size_t i = 0; i < module.numBlocks(); ++i) {
        const BasicBlock &b =
            module.block(BlockId(static_cast<std::uint32_t>(i)));
        putId(out, b.func);
        putId(out, b.name);
        putPool(out, b.insts);
    }

    // The four hot pools: straight memory dumps, no per-element work.
    putPool(out, module.valuePool());
    putPool(out, module.instPool());
    putPool(out, module.operandPool());
    putPool(out, module.phiPool());
}

PoolDecode
deserializeModulePools(ByteReader &in, Module &out)
{
    std::uint32_t mark = 0;
    in.blob(&mark, sizeof mark);
    const std::uint32_t value_size = in.u32();
    const std::uint32_t inst_size = in.u32();
    const std::uint32_t span_size = in.u32();
    if (!in.ok())
        return PoolDecode::Malformed;
    if (mark != kEndianMark || value_size != sizeof(Value) ||
            inst_size != sizeof(Instruction) ||
            span_size != sizeof(NameSpan)) {
        return PoolDecode::LayoutMismatch;
    }

    const std::uint32_t arena_bytes = in.u32();
    if (in.remaining() < arena_bytes)
        return PoolDecode::Malformed;
    std::vector<char> arena(arena_bytes);
    if (!in.blob(arena.data(), arena_bytes))
        return PoolDecode::Malformed;
    std::vector<NameSpan> spans;
    if (!getPool(in, spans))
        return PoolDecode::Malformed;
    if (!out.names().adopt(std::move(arena), std::move(spans)))
        return PoolDecode::Malformed;

    if (!readTypesAndExterns(in, out))
        return PoolDecode::Malformed;
    // The externs codec re-interns spellings; with the adopted arena in
    // place those interns are pure lookups, so handles stay stable.

    const std::uint32_t num_globals = in.u32();
    for (std::uint32_t i = 0; i < num_globals && in.ok(); ++i) {
        Global g;
        g.name = getId<NameTag>(in);
        g.sizeBytes = in.u32();
        g.isStringLiteral = in.u8() != 0;
        g.stringValue = in.str();
        out.addGlobal(std::move(g));
    }

    const std::uint32_t num_funcs = in.u32();
    for (std::uint32_t i = 0; i < num_funcs && in.ok(); ++i) {
        Function f;
        f.name = getId<NameTag>(in);
        if (!getPool(in, f.params) || !getPool(in, f.blocks))
            break;
        f.addressTaken = in.u8() != 0;
        f.isVariadicStub = in.u8() != 0;
        if (!in.ok())
            break;
        out.addFunc(std::move(f));
    }

    const std::uint32_t num_blocks = in.u32();
    for (std::uint32_t i = 0; i < num_blocks && in.ok(); ++i) {
        BasicBlock b;
        b.func = getId<FuncTag>(in);
        b.name = getId<NameTag>(in);
        if (!getPool(in, b.insts))
            break;
        out.addBlock(std::move(b));
    }
    if (!in.ok())
        return PoolDecode::Malformed;

    std::vector<Value> values;
    std::vector<Instruction> insts;
    std::vector<ValueId> operand_pool;
    std::vector<BlockId> phi_pool;
    if (!getPool(in, values) || !getPool(in, insts) ||
            !getPool(in, operand_pool) || !getPool(in, phi_pool)) {
        return PoolDecode::Malformed;
    }
    if (!out.adoptFlatPools(std::move(values), std::move(insts),
                            std::move(operand_pool), std::move(phi_pool))) {
        return PoolDecode::Malformed;
    }

    return validateModuleIds(out) ? PoolDecode::Ok : PoolDecode::Malformed;
}

} // namespace manta
