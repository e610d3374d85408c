#include "clfront/lower.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "clfront/builtins.hpp"

namespace repro::clfront {

namespace {

struct LowerError {
  common::Error error;
};

[[noreturn]] void fail(SourceLoc loc, const std::string& msg) {
  throw LowerError{common::parse_error("line " + std::to_string(loc.line) + ":" +
                                       std::to_string(loc.column) + ": " + msg)};
}

/// Unknown user-call failures carry kNotFound so LowerSession callers (the
/// streaming featurizer) can distinguish "callee not declared *yet*" from a
/// genuine lowering error and defer the function until the stream ends.
[[noreturn]] void fail_unknown_callee(SourceLoc loc, const std::string& callee) {
  throw LowerError{common::not_found("line " + std::to_string(loc.line) + ":" +
                                     std::to_string(loc.column) +
                                     ": call to unknown function '" + callee + "'")};
}

/// Builtin numeric constants accepted as identifiers.
std::optional<Type> builtin_constant_type(const std::string& name) {
  static const std::map<std::string, Type> kConstants = {
      {"M_PI", Type::float_type()},        {"M_PI_F", Type::float_type()},
      {"M_E", Type::float_type()},         {"M_E_F", Type::float_type()},
      {"M_SQRT2", Type::float_type()},     {"FLT_MAX", Type::float_type()},
      {"FLT_MIN", Type::float_type()},     {"FLT_EPSILON", Type::float_type()},
      {"INFINITY", Type::float_type()},    {"NAN", Type::float_type()},
      {"CLK_LOCAL_MEM_FENCE", Type::uint_type()},
      {"CLK_GLOBAL_MEM_FENCE", Type::uint_type()},
      {"INT_MAX", Type::int_type()},       {"INT_MIN", Type::int_type()},
      {"UINT_MAX", Type::uint_type()},
  };
  const auto it = kConstants.find(name);
  if (it == kConstants.end()) return std::nullopt;
  return it->second;
}

/// Return type encoded in convert_*/as_* builtins ("convert_float4" etc).
std::optional<Type> conversion_target(std::string_view callee) {
  if (callee.starts_with("convert_")) return parse_type_name(callee.substr(8));
  if (callee.starts_with("as_")) return parse_type_name(callee.substr(3));
  return std::nullopt;
}

/// vloadN / vstoreN width (0 if not a vload/vstore name).
int vload_width(std::string_view name, bool* is_store) {
  const bool load = name.starts_with("vload");
  const bool store = name.starts_with("vstore");
  if (!load && !store) return 0;
  const int width = vector_width(name.substr(load ? 5 : 6));
  if (width != 0) *is_store = store;
  return width;
}

class Lowerer {
 public:
  explicit Lowerer(const std::map<std::string, FunctionSignature>& signatures)
      : signatures_(signatures) {}

  IrFunction lower_function(const FunctionDecl& fn) {
    current_ = IrFunction{};
    current_.name = fn.name;
    current_.is_kernel = fn.is_kernel;
    label_counter_ = 0;
    scopes_.clear();
    loop_stack_.clear();
    push_scope();
    for (const auto& param : fn.params) declare(param.name, param.type, fn.loc);
    lower_stmt(*fn.body);
    emit(Opcode::kRet, 1);
    pop_scope();
    return std::move(current_);
  }

 private:
  // --- function / scope management ----------------------------------------

  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }

  void declare(const std::string& name, Type type, SourceLoc loc) {
    if (scopes_.back().count(name) != 0) fail(loc, "redeclaration of '" + name + "'");
    scopes_.back()[name] = type;
  }

  [[nodiscard]] std::optional<Type> lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return found->second;
    }
    return builtin_constant_type(name);
  }

  // --- emission helpers -----------------------------------------------------

  void emit(Opcode op, int width, std::string detail = {}, SourceLoc loc = {}) {
    current_.body.push_back(Instruction{op, width, std::move(detail), loc});
  }

  std::string new_label(const char* stem) {
    return std::string(stem) + std::to_string(label_counter_++);
  }

  /// Add-class opcode for a type (integer vs floating compare/add/select).
  static Opcode add_class(const Type& t) {
    return t.is_floating() ? Opcode::kFAdd : Opcode::kIAdd;
  }

  void emit_binary_op(BinaryOp op, const Type& type, SourceLoc loc) {
    const int w = type.width;
    const bool flt = type.is_floating();
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
        emit(flt ? Opcode::kFAdd : Opcode::kIAdd, w, {}, loc);
        break;
      case BinaryOp::kMul:
        emit(flt ? Opcode::kFMul : Opcode::kIMul, w, {}, loc);
        break;
      case BinaryOp::kDiv:
      case BinaryOp::kRem:
        emit(flt ? Opcode::kFDiv : Opcode::kIDiv, w, {}, loc);
        break;
      case BinaryOp::kBitAnd:
      case BinaryOp::kBitOr:
      case BinaryOp::kBitXor:
      case BinaryOp::kShl:
      case BinaryOp::kShr:
        emit(Opcode::kIBitwise, w, {}, loc);
        break;
      case BinaryOp::kLogicalAnd:
      case BinaryOp::kLogicalOr:
        emit(Opcode::kIAdd, w, {}, loc);  // short-circuit test, int class
        break;
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kGt:
      case BinaryOp::kLe:
      case BinaryOp::kGe:
        emit(flt ? Opcode::kFAdd : Opcode::kIAdd, w, {}, loc);  // cmp
        break;
    }
  }

  // --- lvalues ---------------------------------------------------------------

  struct LValue {
    bool is_memory = false;
    Opcode store_op = Opcode::kIAdd;  // valid when is_memory
    Type type;                        // value type of the location
  };

  static Opcode store_opcode(AddressSpace space, SourceLoc loc) {
    switch (space) {
      case AddressSpace::kGlobal: return Opcode::kGlobalStore;
      case AddressSpace::kLocal: return Opcode::kLocalStore;
      case AddressSpace::kConstant:
        fail(loc, "cannot store to __constant memory");
      case AddressSpace::kPrivate: return Opcode::kIAdd;  // register write — free
    }
    return Opcode::kIAdd;
  }

  static Opcode load_opcode(AddressSpace space) {
    switch (space) {
      case AddressSpace::kGlobal:
      case AddressSpace::kConstant:  // counted as a global access (k_gl)
        return Opcode::kGlobalLoad;
      case AddressSpace::kLocal: return Opcode::kLocalLoad;
      case AddressSpace::kPrivate: return Opcode::kIAdd;  // register
    }
    return Opcode::kIAdd;
  }

  /// Lower the address computation of an lvalue (counts index arithmetic)
  /// and describe where the store goes.
  LValue lower_lvalue(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kVarRef: {
        const auto type = lookup(e.as<VarRefExpr>().name);
        if (!type) fail(e.loc, "undeclared identifier '" + e.as<VarRefExpr>().name + "'");
        return LValue{false, Opcode::kIAdd, *type};
      }
      case ExprKind::kMember: {
        // Vector component write: the base must itself be an lvalue. Memory
        // bases (a[i].x = ...) write through; register bases are free.
        const auto& node = e.as<MemberExpr>();
        LValue out = lower_lvalue(*node.base);
        int width = 1;
        if (node.member == "lo" || node.member == "hi" || node.member == "odd" ||
            node.member == "even") {
          width = std::max(1, out.type.width / 2);
        } else if (node.member.size() > 1 && node.member[0] != 's') {
          width = static_cast<int>(node.member.size());
        }
        out.type = out.type.with_width(width);
        return out;
      }
      case ExprKind::kIndex: {
        const auto& node = e.as<IndexExpr>();
        const Type base_type = lower_expr(*node.base);
        lower_expr(*node.index);
        if (!base_type.is_pointer) fail(e.loc, "subscript of non-pointer value");
        LValue out;
        out.is_memory = base_type.addr_space == AddressSpace::kGlobal ||
                        base_type.addr_space == AddressSpace::kLocal;
        out.store_op = store_opcode(base_type.addr_space, e.loc);
        out.type = base_type.pointee();
        return out;
      }
      case ExprKind::kUnary: {
        // *p-style dereference is not in the subset; ++/-- handled elsewhere.
        fail(e.loc, "unsupported lvalue expression");
      }
      default:
        fail(e.loc, "expression is not assignable");
    }
  }

  // --- expressions -----------------------------------------------------------

  Type lower_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLiteral:
        return e.as<IntLiteralExpr>().is_unsigned ? Type::uint_type() : Type::int_type();
      case ExprKind::kFloatLiteral: {
        Type t = Type::float_type();
        if (!e.as<FloatLiteralExpr>().is_float32) t.scalar = ScalarKind::kDouble;
        return t;
      }
      case ExprKind::kVarRef: {
        const auto& node = e.as<VarRefExpr>();
        const auto type = lookup(node.name);
        if (!type) fail(e.loc, "undeclared identifier '" + node.name + "'");
        return *type;
      }
      case ExprKind::kUnary: return lower_unary(e.as<UnaryExpr>());
      case ExprKind::kBinary: return lower_binary(e.as<BinaryExpr>());
      case ExprKind::kAssign: return lower_assign(e.as<AssignExpr>());
      case ExprKind::kConditional: {
        const auto& node = e.as<ConditionalExpr>();
        lower_expr(*node.cond);
        const Type a = lower_expr(*node.then_expr);
        const Type b = lower_expr(*node.else_expr);
        const Type result = promote(a, b);
        emit(add_class(result), result.width, {}, e.loc);  // select
        return result;
      }
      case ExprKind::kCall: return lower_call(e.as<CallExpr>());
      case ExprKind::kIndex: {
        const auto& node = e.as<IndexExpr>();
        const Type base_type = lower_expr(*node.base);
        lower_expr(*node.index);
        if (!base_type.is_pointer) fail(e.loc, "subscript of non-pointer value");
        const Type elem = base_type.pointee();
        const Opcode op = load_opcode(base_type.addr_space);
        if (op == Opcode::kGlobalLoad || op == Opcode::kLocalLoad) {
          emit(op, elem.width, {}, e.loc);
        }
        return elem;
      }
      case ExprKind::kMember: {
        const auto& node = e.as<MemberExpr>();
        const Type base = lower_expr(*node.base);
        // Swizzle width: .x -> 1, .xy -> 2, .lo/.hi -> half, .s0 -> 1.
        int width = 1;
        if (node.member == "lo" || node.member == "hi" || node.member == "odd" ||
            node.member == "even") {
          width = std::max(1, base.width / 2);
        } else if (node.member.size() > 1 && node.member[0] != 's') {
          width = static_cast<int>(node.member.size());
        }
        return base.with_width(width);
      }
      case ExprKind::kCast: {
        const auto& node = e.as<CastExpr>();
        lower_expr(*node.operand);
        emit(Opcode::kCast, node.target.width, {}, e.loc);
        return node.target;
      }
      case ExprKind::kVectorCtor: {
        const auto& node = e.as<VectorCtorExpr>();
        for (const auto& arg : node.args) lower_expr(*arg);
        return node.type;
      }
    }
    fail(e.loc, "unhandled expression kind");
  }

  Type lower_unary(const UnaryExpr& node) {
    const Type t = lower_expr(*node.operand);
    switch (node.op) {
      case UnaryOp::kNegate:
        emit(t.is_floating() ? Opcode::kFAdd : Opcode::kIAdd, t.width, {}, node.loc);
        return t;
      case UnaryOp::kNot:
        emit(Opcode::kIAdd, t.width, {}, node.loc);
        return Type::bool_type();
      case UnaryOp::kBitNot:
        emit(Opcode::kIBitwise, t.width, {}, node.loc);
        return t;
      case UnaryOp::kPreInc:
      case UnaryOp::kPreDec:
      case UnaryOp::kPostInc:
      case UnaryOp::kPostDec: {
        emit(t.is_floating() ? Opcode::kFAdd : Opcode::kIAdd, t.width, {}, node.loc);
        // Writing back through a memory lvalue costs a store.
        if (node.operand->kind == ExprKind::kIndex) {
          const auto& idx = node.operand->as<IndexExpr>();
          // Base/index were already lowered as part of the value read; only
          // the store op itself is added here.
          (void)idx;
          emit(Opcode::kGlobalStore, t.width, {}, node.loc);
        }
        return t;
      }
    }
    return t;
  }

  Type lower_binary(const BinaryExpr& node) {
    const Type lhs = lower_expr(*node.lhs);
    const Type rhs = lower_expr(*node.rhs);
    // Pointer arithmetic yields the pointer type; one integer add.
    if (lhs.is_pointer || rhs.is_pointer) {
      emit(Opcode::kIAdd, 1, {}, node.loc);
      return lhs.is_pointer ? lhs : rhs;
    }
    const Type result = promote(lhs, rhs);
    emit_binary_op(node.op, result, node.loc);
    switch (node.op) {
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kGt:
      case BinaryOp::kLe:
      case BinaryOp::kGe:
      case BinaryOp::kLogicalAnd:
      case BinaryOp::kLogicalOr:
        return Type::bool_type().with_width(result.width);
      default:
        return result;
    }
  }

  Type lower_assign(const AssignExpr& node) {
    const Type rhs = lower_expr(*node.rhs);
    const LValue lhs = lower_lvalue(*node.lhs);
    if (node.op) {
      // Compound assignment re-reads the destination.
      if (lhs.is_memory) {
        emit(lhs.store_op == Opcode::kGlobalStore ? Opcode::kGlobalLoad
                                                  : Opcode::kLocalLoad,
             lhs.type.width, {}, node.loc);
      }
      emit_binary_op(*node.op, promote(lhs.type, rhs), node.loc);
    }
    if (lhs.is_memory) emit(lhs.store_op, lhs.type.width, {}, node.loc);
    return lhs.type;
  }

  Type lower_call(const CallExpr& node) {
    const BuiltinCategory cat = classify_builtin(node.callee);
    switch (cat) {
      case BuiltinCategory::kRuntime:
        for (const auto& arg : node.args) lower_expr(*arg);
        emit(Opcode::kRuntime, 1, node.callee, node.loc);
        return Type{ScalarKind::kULong, 1, false, AddressSpace::kPrivate};  // size_t
      case BuiltinCategory::kBarrier:
        for (const auto& arg : node.args) lower_expr(*arg);
        emit(Opcode::kBarrier, 1, node.callee, node.loc);
        return Type::void_type();
      case BuiltinCategory::kSpecial: {
        Type result = Type::float_type();
        for (const auto& arg : node.args) result = promote(result, lower_expr(*arg));
        emit(Opcode::kSpecialFn, result.width, node.callee, node.loc);
        return result;
      }
      case BuiltinCategory::kCheapMath: {
        Type result = node.args.empty() ? Type::float_type() : Type::void_type();
        bool first = true;
        for (const auto& arg : node.args) {
          const Type t = lower_expr(*arg);
          result = first ? t : promote(result, t);
          first = false;
        }
        emit(add_class(result), result.width, node.callee, node.loc);
        return result;
      }
      case BuiltinCategory::kMulAdd: {
        Type result = Type::float_type();
        for (const auto& arg : node.args) result = promote(result, lower_expr(*arg));
        emit(Opcode::kFMul, result.width, node.callee, node.loc);
        emit(Opcode::kFAdd, result.width, node.callee, node.loc);
        return result;
      }
      case BuiltinCategory::kDot: {
        Type vec = Type::float_type();
        for (const auto& arg : node.args) vec = promote(vec, lower_expr(*arg));
        emit(Opcode::kFMul, vec.width, node.callee, node.loc);
        if (vec.width > 1) emit(Opcode::kFAdd, vec.width - 1, node.callee, node.loc);
        if (node.callee == "length" || node.callee == "distance") {
          emit(Opcode::kSpecialFn, 1, "sqrt", node.loc);
        }
        return Type::float_type();
      }
      case BuiltinCategory::kConvert: {
        for (const auto& arg : node.args) lower_expr(*arg);
        const auto target = conversion_target(node.callee);
        if (!target) fail(node.loc, "malformed conversion '" + node.callee + "'");
        emit(Opcode::kCast, target->width, node.callee, node.loc);
        return *target;
      }
      case BuiltinCategory::kAtomic: {
        for (const auto& arg : node.args) lower_expr(*arg);
        emit(Opcode::kIAdd, 1, node.callee, node.loc);
        emit(Opcode::kGlobalStore, 1, node.callee, node.loc);
        return Type::int_type();
      }
      case BuiltinCategory::kNotBuiltin:
        break;
    }

    // vloadN / vstoreN.
    bool is_store = false;
    if (const int width = vload_width(node.callee, &is_store); width != 0) {
      AddressSpace space = AddressSpace::kGlobal;
      Type elem = Type::float_type();
      for (std::size_t i = 0; i < node.args.size(); ++i) {
        const Type t = lower_expr(*node.args[i]);
        if (t.is_pointer) {
          space = t.addr_space;
          elem = t.pointee();
        }
      }
      const Opcode op = is_store ? store_opcode(space, node.loc) : load_opcode(space);
      if (op != Opcode::kIAdd) emit(op, width, node.callee, node.loc);
      return is_store ? Type::void_type() : elem.with_width(width);
    }

    // User-defined function.
    const auto it = signatures_.find(node.callee);
    if (it == signatures_.end()) {
      fail_unknown_callee(node.loc, node.callee);
    }
    if (node.args.size() != it->second.num_params) {
      fail(node.loc, "wrong number of arguments to '" + node.callee + "'");
    }
    for (const auto& arg : node.args) lower_expr(*arg);
    emit(Opcode::kCall, 1, node.callee, node.loc);
    return it->second.return_type;
  }

  // --- statements ------------------------------------------------------------

  void lower_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kCompound: {
        push_scope();
        for (const auto& child : s.as<CompoundStmt>().body) lower_stmt(*child);
        pop_scope();
        break;
      }
      case StmtKind::kDecl: {
        for (const auto& d : s.as<DeclStmt>().decls) {
          Type var_type = d.type;
          // Arrays decay to pointers in their declared address space.
          if (d.array_size > 0) var_type = d.type.as_pointer(d.type.addr_space);
          declare(d.name, var_type, s.loc);
          if (d.init) lower_expr(*d.init);
        }
        break;
      }
      case StmtKind::kExpr:
        lower_expr(*s.as<ExprStmt>().expr);
        break;
      case StmtKind::kIf: {
        const auto& node = s.as<IfStmt>();
        lower_expr(*node.cond);
        const std::string then_label = new_label("if_then");
        const std::string else_label = new_label("if_else");
        const std::string end_label = new_label("if_end");
        emit(Opcode::kCondBr, 1, then_label + "," + else_label, s.loc);
        emit(Opcode::kLabel, 1, then_label, s.loc);
        lower_stmt(*node.then_stmt);
        emit(Opcode::kBr, 1, end_label, s.loc);
        emit(Opcode::kLabel, 1, else_label, s.loc);
        if (node.else_stmt) lower_stmt(*node.else_stmt);
        emit(Opcode::kBr, 1, end_label, s.loc);
        emit(Opcode::kLabel, 1, end_label, s.loc);
        break;
      }
      case StmtKind::kFor: {
        const auto& node = s.as<ForStmt>();
        push_scope();
        if (node.init) lower_stmt(*node.init);
        const std::string cond_label = new_label("for_cond");
        const std::string body_label = new_label("for_body");
        const std::string end_label = new_label("for_end");
        emit(Opcode::kLabel, 1, cond_label, s.loc);
        if (node.cond) lower_expr(*node.cond);
        emit(Opcode::kCondBr, 1, body_label + "," + end_label, s.loc);
        emit(Opcode::kLabel, 1, body_label, s.loc);
        loop_stack_.push_back({cond_label, end_label});
        lower_stmt(*node.body);
        if (node.step) lower_expr(*node.step);
        loop_stack_.pop_back();
        emit(Opcode::kBr, 1, cond_label, s.loc);
        emit(Opcode::kLabel, 1, end_label, s.loc);
        pop_scope();
        break;
      }
      case StmtKind::kWhile: {
        const auto& node = s.as<WhileStmt>();
        const std::string cond_label = new_label("while_cond");
        const std::string body_label = new_label("while_body");
        const std::string end_label = new_label("while_end");
        emit(Opcode::kLabel, 1, cond_label, s.loc);
        lower_expr(*node.cond);
        emit(Opcode::kCondBr, 1, body_label + "," + end_label, s.loc);
        emit(Opcode::kLabel, 1, body_label, s.loc);
        loop_stack_.push_back({cond_label, end_label});
        lower_stmt(*node.body);
        loop_stack_.pop_back();
        emit(Opcode::kBr, 1, cond_label, s.loc);
        emit(Opcode::kLabel, 1, end_label, s.loc);
        break;
      }
      case StmtKind::kDoWhile: {
        const auto& node = s.as<DoWhileStmt>();
        const std::string body_label = new_label("do_body");
        const std::string cond_label = new_label("do_cond");
        const std::string end_label = new_label("do_end");
        emit(Opcode::kLabel, 1, body_label, s.loc);
        loop_stack_.push_back({cond_label, end_label});
        lower_stmt(*node.body);
        loop_stack_.pop_back();
        emit(Opcode::kLabel, 1, cond_label, s.loc);
        lower_expr(*node.cond);
        emit(Opcode::kCondBr, 1, body_label + "," + end_label, s.loc);
        emit(Opcode::kLabel, 1, end_label, s.loc);
        break;
      }
      case StmtKind::kReturn:
        if (s.as<ReturnStmt>().value) lower_expr(*s.as<ReturnStmt>().value);
        emit(Opcode::kRet, 1, {}, s.loc);
        break;
      case StmtKind::kBreak:
        if (loop_stack_.empty()) fail(s.loc, "break outside loop");
        emit(Opcode::kBr, 1, loop_stack_.back().break_label, s.loc);
        break;
      case StmtKind::kContinue:
        if (loop_stack_.empty()) fail(s.loc, "continue outside loop");
        emit(Opcode::kBr, 1, loop_stack_.back().continue_label, s.loc);
        break;
    }
  }

  struct LoopLabels {
    std::string continue_label;
    std::string break_label;
  };

  const std::map<std::string, FunctionSignature>& signatures_;
  IrFunction current_;
  std::vector<std::map<std::string, Type>> scopes_;
  std::vector<LoopLabels> loop_stack_;
  int label_counter_ = 0;
};

}  // namespace

common::Result<IrModule> lower_to_ir(const TranslationUnit& unit) {
  // Declare every function first (forward references lower fine), then
  // lower in declaration order — the exact sequence the streaming path
  // reproduces incrementally through LowerSession.
  std::map<std::string, FunctionSignature> signatures;
  for (const auto& fn : unit.functions) {
    signatures.emplace(fn.name, FunctionSignature{fn.return_type, fn.params.size()});
  }
  try {
    Lowerer lowerer(signatures);
    IrModule module;
    for (const auto& fn : unit.functions) {
      module.functions.push_back(lowerer.lower_function(fn));
    }
    return module;
  } catch (LowerError& e) {
    // The kNotFound unknown-callee sentinel is LowerSession-internal (it
    // drives the streaming featurizer's deferral); at this public boundary
    // an unknown callee is invalid source, i.e. a parse error — as it
    // always has been.
    if (e.error.code == common::ErrorCode::kNotFound) {
      e.error.code = common::ErrorCode::kParseError;
    }
    return std::move(e.error);
  }
}

void LowerSession::declare(const FunctionDecl& fn) {
  signatures_.emplace(fn.name, FunctionSignature{fn.return_type, fn.params.size()});
}

common::Result<IrFunction> LowerSession::lower(const FunctionDecl& fn) const {
  try {
    Lowerer lowerer(signatures_);
    return lowerer.lower_function(fn);
  } catch (LowerError& e) {
    return std::move(e.error);
  }
}

}  // namespace repro::clfront
