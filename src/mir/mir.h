/**
 * @file
 * MIR: Manta's register-width intermediate representation.
 *
 * MIR plays the role the paper assigns to lifter output (RetDec-lifted
 * LLVM IR, Section 3): binary registers and arguments become SSA values,
 * the binary instruction set maps to a small LLVM-like vocabulary, and -
 * crucially - values carry only a *bit width*, never a source type.
 * Recovering types is the whole point of the core library.
 *
 * Storage layout (docs/ARCHITECTURE.md, "Memory layout"): a Module owns
 * flat arena pools addressed by 32-bit typed ids. Value and Instruction
 * records are fixed-size POD; all variable-length per-instruction data
 * (operand lists, phi incoming-block lists) lives in two module-level
 * CSR pools referenced by [offset, count) slices, and every debug name
 * is a NameId handle into one shared string interner. The five hot
 * pools (values, instructions, operands, phi blocks, name arena) are
 * therefore relocatable byte ranges, which is both the cache-friendly
 * traversal layout and the zero-copy snapshot format.
 */
#ifndef MANTA_MIR_MIR_H
#define MANTA_MIR_MIR_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.h"
#include "support/ids.h"
#include "support/interner.h"
#include "types/type.h"

namespace manta {

struct ValueTag {};
struct InstTag {};
struct BlockTag {};
struct FuncTag {};
struct GlobalTag {};
struct ExternTag {};

using ValueId = Id<ValueTag>;
using InstId = Id<InstTag>;
using BlockId = Id<BlockTag>;
using FuncId = Id<FuncTag>;
using GlobalId = Id<GlobalTag>;
using ExternId = Id<ExternTag>;

/** What a Value denotes. */
enum class ValueKind : std::uint8_t {
    Constant,    ///< Integer literal of a given width.
    Argument,    ///< Function parameter.
    InstResult,  ///< Result of an instruction.
    GlobalAddr,  ///< Address of a global (width 64).
    FuncAddr,    ///< Address of a function (width 64, address-taken).
};

/**
 * An SSA value. Width is the only "type" a binary knows. A fixed-size
 * POD record; the debug name is an interner handle resolved through
 * Module::nameOf.
 */
struct Value
{
    ValueKind kind = ValueKind::Constant;
    std::uint8_t width = 64;      ///< Bits: 1, 8, 16, 32 or 64.
    std::uint16_t pad0_ = 0;      ///< Zeroed: keeps pool dumps deterministic.
    std::uint32_t argIndex = 0;   ///< For Argument.
    std::int64_t constValue = 0;  ///< For Constant.
    FuncId argFunc;               ///< For Argument: owning function.
    InstId inst;                  ///< For InstResult: defining instruction.
    GlobalId global;              ///< For GlobalAddr.
    FuncId funcAddr;              ///< For FuncAddr.
    NameId name;                  ///< Optional debug name (invalid if none).
    std::uint32_t pad1_ = 0;      ///< Zeroed tail padding.
};

static_assert(std::is_trivially_copyable_v<Value> && sizeof(Value) == 40,
              "Value records are dumped byte-wise by the snapshot codec");

/** MIR opcodes (the lifted vocabulary of Section 3). */
enum class Opcode : std::uint8_t {
    Copy,     ///< result = operand0 (register move / bitcast).
    Phi,      ///< SSA phi; operands parallel to phi blocks.
    Alloca,   ///< Stack slot of allocaSize bytes; result is its address.
    Load,     ///< result = *(operand0); width = result width.
    Store,    ///< *(operand0) = operand1.
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Shl, Shr,
    FAdd, FSub, FMul, FDiv,   ///< Floating arithmetic (type-revealing).
    ICmp,     ///< Integer/pointer compare; result width 1.
    FCmp,     ///< Floating compare; result width 1.
    Trunc, ZExt, SExt,        ///< Width conversions.
    Call,     ///< Direct call: callee or external set; operands = args.
    ICall,    ///< Indirect call: operand0 = target, rest = args.
    Ret,      ///< Return; 0 or 1 operand.
    Br,       ///< Conditional branch on operand0 to thenBlock/elseBlock.
    Jmp,      ///< Unconditional jump to thenBlock.
    Unreachable,
};

/** Comparison predicate for ICmp/FCmp. */
enum class CmpPred : std::uint8_t {
    EQ, NE, LT, LE, GT, GE,
};

/**
 * One MIR instruction: a fixed-size POD record. Operands and phi
 * incoming blocks are [offset, count) slices of the module-level CSR
 * pools, accessed through Module::operands / Module::phiBlocks; the
 * slice fields are maintained by Module and must not be written
 * directly.
 */
struct Instruction
{
    Opcode op = Opcode::Unreachable;
    CmpPred pred = CmpPred::EQ;
    std::uint16_t pad0_ = 0;         ///< Zeroed: deterministic pool dumps.
    ValueId result;                  ///< Invalid when the op has no result.
    std::uint32_t operandOff = 0;    ///< Slice start in the operand pool.
    std::uint32_t operandCnt = 0;    ///< Operand count.
    std::uint32_t phiOff = 0;        ///< Slice start in the phi-block pool.
    std::uint32_t phiCnt = 0;        ///< Phi incoming-block count.
    FuncId callee;                   ///< Direct internal callee.
    ExternId external;               ///< Direct external callee.
    BlockId thenBlock;               ///< Br/Jmp target.
    BlockId elseBlock;               ///< Br false target.
    BlockId parent;                  ///< Owning block.
    std::uint32_t allocaSize = 0;    ///< Alloca byte size.
    /**
     * Frontend-assigned origin tag (0 = none). Survives loop unrolling
     * (clones keep the tag), letting evaluation match reports against
     * injected ground truth regardless of preprocessing.
     */
    std::uint32_t srcTag = 0;

    std::size_t numOperands() const { return operandCnt; }

    bool
    isTerminator() const
    {
        return op == Opcode::Ret || op == Opcode::Br || op == Opcode::Jmp ||
               op == Opcode::Unreachable;
    }

    bool isCall() const { return op == Opcode::Call || op == Opcode::ICall; }
};

static_assert(std::is_trivially_copyable_v<Instruction> &&
                  sizeof(Instruction) == 52,
              "Instruction records are dumped byte-wise by the snapshot "
              "codec");

/** A basic block: an ordered list of instructions ending in a terminator. */
struct BasicBlock
{
    FuncId func;
    NameId name;
    std::vector<InstId> insts;
};

/** A function: parameters, blocks (blocks[0] is the entry). */
struct Function
{
    NameId name;
    std::vector<ValueId> params;
    std::vector<BlockId> blocks;
    bool addressTaken = false;   ///< May be an indirect-call target.
    bool isVariadicStub = false; ///< Generator marker, not analyzed deeper.

    BlockId
    entry() const
    {
        return blocks.empty() ? BlockId::invalid() : blocks.front();
    }
};

/** A global memory object; optionally a string literal. */
struct Global
{
    NameId name;
    std::uint32_t sizeBytes = 8;
    bool isStringLiteral = false;
    std::string stringValue;
};

/** Behavioural role of an external function (drives hints and checkers). */
enum class ExternRole : std::uint8_t {
    None,
    Alloc,        ///< malloc/calloc-like: returns fresh heap memory.
    Free,         ///< free-like: releases operand 0.
    TaintSource,  ///< recv/getenv/nvram_get-like: returns attacker data.
    CommandSink,  ///< system/popen-like: executes operand 0.
    StrCopy,      ///< strcpy/strcat-like: unbounded copy into operand 0.
    BoundedCopy,  ///< memcpy/strncpy-like: bounded copy into operand 0.
    Sanitizer,    ///< atoi/strtol-like: converts a string to a number.
    Print,        ///< printf-like (split into typed variants).
    Exit,         ///< Never returns.
};

/** Signature and role of an external (type-revealing, Table 1 rule 4). */
struct External
{
    NameId name;
    std::vector<TypeRef> paramTypes;
    TypeRef retType;             ///< Invalid for void.
    ExternRole role = ExternRole::None;
};

/**
 * A whole lifted program. Pools are dense and append-only; ids index
 * into them directly.
 *
 * Operand/phi slices live in shared CSR pools. Slices are immutable in
 * length except through setOperands/setPhiBlocks, which write in place
 * when the new list fits and otherwise append a fresh run at the pool
 * tail (the abandoned run stays as slack - only the loop unroller ever
 * resizes, and compactOperandPools() reclaims it).
 */
class Module
{
  public:
    Module() = default;

    // Modules are heavyweight; move-only.
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;
    Module(Module &&) = default;
    Module &operator=(Module &&) = default;

    /// @name Pool accessors.
    /// @{
    const Value &value(ValueId id) const { return values_.at(id.index()); }
    Value &value(ValueId id) { return values_.at(id.index()); }
    const Instruction &inst(InstId id) const { return insts_.at(id.index()); }
    Instruction &inst(InstId id) { return insts_.at(id.index()); }
    const BasicBlock &block(BlockId id) const { return blocks_.at(id.index()); }
    BasicBlock &block(BlockId id) { return blocks_.at(id.index()); }
    const Function &func(FuncId id) const { return funcs_.at(id.index()); }
    Function &func(FuncId id) { return funcs_.at(id.index()); }
    const Global &global(GlobalId id) const { return globals_.at(id.index()); }
    const External &external(ExternId id) const
    {
        return externs_.at(id.index());
    }
    /// @}

    std::size_t numValues() const { return values_.size(); }
    std::size_t numInsts() const { return insts_.size(); }
    std::size_t numBlocks() const { return blocks_.size(); }
    std::size_t numFuncs() const { return funcs_.size(); }
    std::size_t numGlobals() const { return globals_.size(); }
    std::size_t numExterns() const { return externs_.size(); }

    /// @name Operand / phi-block CSR slices.
    /// @{
    std::span<const ValueId>
    operands(const Instruction &inst) const
    {
        return {operandPool_.data() + inst.operandOff, inst.operandCnt};
    }

    std::span<const ValueId>
    operands(InstId id) const
    {
        return operands(inst(id));
    }

    /** The k-th operand (bounds-checked). */
    ValueId
    operand(const Instruction &inst, std::size_t k) const
    {
        MANTA_ASSERT(k < inst.operandCnt, "operand index out of range");
        return operandPool_[inst.operandOff + k];
    }

    ValueId operand(InstId id, std::size_t k) const
    {
        return operand(inst(id), k);
    }

    std::span<const BlockId>
    phiBlocks(const Instruction &inst) const
    {
        return {phiPool_.data() + inst.phiOff, inst.phiCnt};
    }

    std::span<const BlockId>
    phiBlocks(InstId id) const
    {
        return phiBlocks(inst(id));
    }

    /** In-place mutable view (same length; ids may be rewritten). */
    std::span<ValueId>
    operandsMut(InstId id)
    {
        const Instruction &i = inst(id);
        return {operandPool_.data() + i.operandOff, i.operandCnt};
    }

    std::span<BlockId>
    phiBlocksMut(InstId id)
    {
        const Instruction &i = inst(id);
        return {phiPool_.data() + i.phiOff, i.phiCnt};
    }

    /** Replace an instruction's operand list (may change its length). */
    void setOperands(InstId id, std::span<const ValueId> ops);

    /** Replace an instruction's phi incoming-block list. */
    void setPhiBlocks(InstId id, std::span<const BlockId> blocks);
    /// @}

    /// @name Pool construction (used by the builder/parser).
    /// @{
    ValueId addValue(Value v);

    /**
     * Append an instruction together with its operand / phi-block
     * lists. `inst`'s slice fields must be untouched (freshly default
     * constructed); they are assigned here.
     */
    InstId addInst(Instruction inst, std::span<const ValueId> operands = {},
                   std::span<const BlockId> phi_blocks = {});

    /**
     * Append a copy of `proto` - a record copied from *this* module -
     * duplicating its operand/phi slices into fresh runs so the clone
     * can be remapped independently (loop unrolling).
     */
    InstId addInstClone(const Instruction &proto);

    BlockId addBlock(BasicBlock block);
    FuncId addFunc(Function func);
    GlobalId addGlobal(Global global);
    ExternId addExternal(External ext);
    /// @}

    /** Pre-size the hot pools (parser pre-scan; generator profiles). */
    void reservePools(std::size_t values, std::size_t insts,
                      std::size_t operands, std::size_t blocks = 0);

    /**
     * Drop slack runs abandoned by setOperands growth: rewrites both
     * CSR pools in instruction order. Invalidates raw offsets (never
     * ids); run after the unrolling passes, before analyses.
     */
    void compactOperandPools();

    /// @name Names.
    /// @{
    /** Intern a debug name ("" -> invalid handle). */
    NameId internName(std::string_view name) { return names_.intern(name); }

    /** Spelling of an interned handle ("" for invalid). */
    std::string_view str(NameId id) const { return names_.str(id); }

    std::string_view nameOf(ValueId id) const { return str(value(id).name); }
    std::string_view nameOf(BlockId id) const { return str(block(id).name); }
    std::string_view nameOf(FuncId id) const { return str(func(id).name); }
    std::string_view nameOf(GlobalId id) const { return str(global(id).name); }
    std::string_view nameOf(ExternId id) const
    {
        return str(external(id).name);
    }

    const StringInterner &names() const { return names_; }
    StringInterner &names() { return names_; }
    /// @}

    /** Find a function by name; invalid id if absent. */
    FuncId findFunc(std::string_view name) const;

    /** Find an external by name; invalid id if absent. */
    ExternId findExternal(std::string_view name) const;

    /** Find a global by name; invalid id if absent. */
    GlobalId findGlobal(std::string_view name) const;

    /** All functions whose address is taken (indirect-call candidates). */
    std::vector<FuncId> addressTakenFuncs() const;

    /** Defining/using function of a value (invalid for constants/globals). */
    FuncId owningFunc(ValueId id) const;

    /** The shared type table (external signatures, ground truth). */
    TypeTable &types() { return types_; }
    const TypeTable &types() const { return types_; }

    /** Iterate function ids 0..n-1. */
    std::vector<FuncId> funcIds() const;

    /// @name Raw pool access (snapshot codec).
    /// @{
    const std::vector<Value> &valuePool() const { return values_; }
    const std::vector<Instruction> &instPool() const { return insts_; }
    const std::vector<ValueId> &operandPool() const { return operandPool_; }
    const std::vector<BlockId> &phiPool() const { return phiPool_; }

    /**
     * Replace the four hot pools wholesale (zero-copy snapshot load).
     * Validates every CSR slice against the pool sizes; returns false -
     * leaving the module unspecified - on malformed input.
     */
    bool adoptFlatPools(std::vector<Value> values,
                        std::vector<Instruction> insts,
                        std::vector<ValueId> operand_pool,
                        std::vector<BlockId> phi_pool);
    /// @}

  private:
    std::uint32_t appendOperandRun(std::span<const ValueId> ops);
    std::uint32_t appendPhiRun(std::span<const BlockId> blocks);

    std::vector<Value> values_;
    std::vector<Instruction> insts_;
    std::vector<ValueId> operandPool_;
    std::vector<BlockId> phiPool_;
    std::vector<BasicBlock> blocks_;
    std::vector<Function> funcs_;
    std::vector<Global> globals_;
    std::vector<External> externs_;
    StringInterner names_;
    TypeTable types_;
};

/** Printable opcode name. */
const char *opcodeName(Opcode op);

/** Printable predicate name. */
const char *predName(CmpPred pred);

} // namespace manta

#endif // MANTA_MIR_MIR_H
