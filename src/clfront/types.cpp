#include "clfront/types.hpp"

#include <array>
#include <utility>

namespace repro::clfront {

const char* scalar_kind_name(ScalarKind kind) noexcept {
  switch (kind) {
    case ScalarKind::kVoid: return "void";
    case ScalarKind::kBool: return "bool";
    case ScalarKind::kChar: return "char";
    case ScalarKind::kUChar: return "uchar";
    case ScalarKind::kShort: return "short";
    case ScalarKind::kUShort: return "ushort";
    case ScalarKind::kInt: return "int";
    case ScalarKind::kUInt: return "uint";
    case ScalarKind::kLong: return "long";
    case ScalarKind::kULong: return "ulong";
    case ScalarKind::kFloat: return "float";
    case ScalarKind::kDouble: return "double";
    case ScalarKind::kHalf: return "half";
  }
  return "?";
}

const char* address_space_name(AddressSpace space) noexcept {
  switch (space) {
    case AddressSpace::kPrivate: return "private";
    case AddressSpace::kGlobal: return "global";
    case AddressSpace::kLocal: return "local";
    case AddressSpace::kConstant: return "constant";
  }
  return "?";
}

std::string Type::to_string() const {
  std::string s;
  if (is_pointer) {
    s += address_space_name(addr_space);
    s += ' ';
  }
  s += scalar_kind_name(scalar);
  if (width > 1) s += std::to_string(width);
  if (is_pointer) s += '*';
  return s;
}

int vector_width(std::string_view suffix) noexcept {
  if (suffix == "2") return 2;
  if (suffix == "3") return 3;
  if (suffix == "4") return 4;
  if (suffix == "8") return 8;
  if (suffix == "16") return 16;
  return 0;
}

std::optional<Type> parse_type_name(std::string_view name) noexcept {
  static constexpr std::array<std::pair<std::string_view, ScalarKind>, 13> kScalars = {{
      {"void", ScalarKind::kVoid},
      {"bool", ScalarKind::kBool},
      {"char", ScalarKind::kChar},
      {"uchar", ScalarKind::kUChar},
      {"short", ScalarKind::kShort},
      {"ushort", ScalarKind::kUShort},
      {"int", ScalarKind::kInt},
      {"uint", ScalarKind::kUInt},
      {"long", ScalarKind::kLong},
      {"ulong", ScalarKind::kULong},
      {"float", ScalarKind::kFloat},
      {"double", ScalarKind::kDouble},
      {"half", ScalarKind::kHalf},
  }};
  if (name == "size_t") return Type{ScalarKind::kULong, 1, false, AddressSpace::kPrivate};
  if (name == "unsigned") return Type::uint_type();
  for (const auto& [base, kind] : kScalars) {
    if (name.empty() || name[0] != base[0] || !name.starts_with(base)) continue;
    if (name.size() == base.size()) return Type{kind, 1, false, AddressSpace::kPrivate};
    const int width = vector_width(name.substr(base.size()));
    if (width != 0 && kind != ScalarKind::kVoid && kind != ScalarKind::kBool) {
      return Type{kind, width, false, AddressSpace::kPrivate};
    }
  }
  return std::nullopt;
}

namespace {

int rank(ScalarKind kind) noexcept {
  switch (kind) {
    case ScalarKind::kVoid: return 0;
    case ScalarKind::kBool: return 1;
    case ScalarKind::kChar:
    case ScalarKind::kUChar: return 2;
    case ScalarKind::kShort:
    case ScalarKind::kUShort: return 3;
    case ScalarKind::kInt:
    case ScalarKind::kUInt: return 4;
    case ScalarKind::kLong:
    case ScalarKind::kULong: return 5;
    case ScalarKind::kHalf: return 6;
    case ScalarKind::kFloat: return 7;
    case ScalarKind::kDouble: return 8;
  }
  return 0;
}

}  // namespace

Type promote(const Type& a, const Type& b) noexcept {
  Type out = rank(a.scalar) >= rank(b.scalar) ? a : b;
  out.width = std::max(a.width, b.width);
  out.is_pointer = false;
  out.addr_space = AddressSpace::kPrivate;
  return out;
}

}  // namespace repro::clfront
