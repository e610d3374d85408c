// Type system of the OpenCL-C subset: scalars, fixed-width vectors
// (float4 etc.) and pointers with OpenCL address spaces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace repro::clfront {

enum class ScalarKind : std::uint8_t {
  kVoid,
  kBool,
  kChar, kUChar,
  kShort, kUShort,
  kInt, kUInt,
  kLong, kULong,
  kFloat, kDouble, kHalf,
};

enum class AddressSpace : std::uint8_t {
  kPrivate = 0,  // default (registers / stack)
  kGlobal,
  kLocal,
  kConstant,
};

/// A value type: scalar kind + vector width (1 for scalars) + optional
/// pointer-ness with an address space. Pointer-to-pointer is not supported.
struct Type {
  ScalarKind scalar = ScalarKind::kInt;
  int width = 1;               // 1, 2, 3, 4, 8 or 16
  bool is_pointer = false;
  AddressSpace addr_space = AddressSpace::kPrivate;

  [[nodiscard]] bool is_void() const noexcept {
    return scalar == ScalarKind::kVoid && !is_pointer;
  }
  [[nodiscard]] bool is_floating() const noexcept {
    return !is_pointer && (scalar == ScalarKind::kFloat || scalar == ScalarKind::kDouble ||
                           scalar == ScalarKind::kHalf);
  }
  [[nodiscard]] bool is_integer() const noexcept { return !is_pointer && !is_floating() && scalar != ScalarKind::kVoid; }
  [[nodiscard]] bool is_vector() const noexcept { return width > 1; }

  /// The pointed-to element type.
  [[nodiscard]] Type pointee() const noexcept {
    Type t = *this;
    t.is_pointer = false;
    return t;
  }
  [[nodiscard]] Type as_pointer(AddressSpace space) const noexcept {
    Type t = *this;
    t.is_pointer = true;
    t.addr_space = space;
    return t;
  }
  /// Same scalar kind with a different vector width.
  [[nodiscard]] Type with_width(int w) const noexcept {
    Type t = *this;
    t.width = w;
    return t;
  }

  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] static Type void_type() { return {ScalarKind::kVoid, 1, false, AddressSpace::kPrivate}; }
  [[nodiscard]] static Type int_type() { return {ScalarKind::kInt, 1, false, AddressSpace::kPrivate}; }
  [[nodiscard]] static Type uint_type() { return {ScalarKind::kUInt, 1, false, AddressSpace::kPrivate}; }
  [[nodiscard]] static Type float_type() { return {ScalarKind::kFloat, 1, false, AddressSpace::kPrivate}; }
  [[nodiscard]] static Type bool_type() { return {ScalarKind::kBool, 1, false, AddressSpace::kPrivate}; }

  friend bool operator==(const Type&, const Type&) = default;
};

[[nodiscard]] const char* scalar_kind_name(ScalarKind kind) noexcept;
[[nodiscard]] const char* address_space_name(AddressSpace space) noexcept;

/// Parse a type name like "float4", "uint", "size_t". Returns nullopt for
/// non-type identifiers. Allocates nothing.
[[nodiscard]] std::optional<Type> parse_type_name(std::string_view name) noexcept;

/// The vector width a type-name suffix spells ("2", "3", "4", "8" or "16"),
/// or 0.
[[nodiscard]] int vector_width(std::string_view suffix) noexcept;

/// Usual arithmetic conversion of two operand types (float wins over int,
/// wider vector wins over scalar, double over float).
[[nodiscard]] Type promote(const Type& a, const Type& b) noexcept;

}  // namespace repro::clfront
