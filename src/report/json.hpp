#pragma once
// Structured experiment records: a small JSON value type with emission and
// parsing, plus a file writer.
//
// Scenario batches and the mvf CLI report one JSON record per scenario
// (machine-readable counterpart of the bench harnesses' CSV output), and
// adversary reports round-trip through JSON so downstream tooling -- and
// the CI smoke job -- can validate them without C++.  Objects preserve
// insertion order so reports diff cleanly; numbers that are integral are
// emitted without a fractional part.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mvf::report {

/// Thrown by Json::parse and the typed accessors on malformed input.
class JsonError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class Json {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Json() = default;  // null
    Json(bool b) : type_(Type::kBool), bool_(b) {}
    Json(double v) : type_(Type::kNumber), num_(v) {}
    Json(int v) : type_(Type::kNumber), num_(v) {}
    Json(std::int64_t v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
    Json(std::uint64_t v) : type_(Type::kNumber), num_(static_cast<double>(v)) {}
    Json(const char* s) : type_(Type::kString), str_(s) {}
    Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

    static Json array() {
        Json j;
        j.type_ = Type::kArray;
        return j;
    }
    static Json object() {
        Json j;
        j.type_ = Type::kObject;
        return j;
    }

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::kNull; }
    bool is_bool() const { return type_ == Type::kBool; }
    bool is_number() const { return type_ == Type::kNumber; }
    bool is_string() const { return type_ == Type::kString; }
    bool is_array() const { return type_ == Type::kArray; }
    bool is_object() const { return type_ == Type::kObject; }

    /// Typed accessors; throw JsonError on type mismatch.
    bool as_bool() const;
    double as_number() const;
    std::int64_t as_int() const;
    std::uint64_t as_uint() const;
    const std::string& as_string() const;

    // --- arrays ---
    std::size_t size() const;  ///< elements (array) or members (object)
    void push_back(Json value);
    const Json& at(std::size_t i) const;
    const std::vector<Json>& items() const;

    // --- objects ---
    /// Inserts or overwrites member `key`.
    void set(const std::string& key, Json value);
    bool contains(const std::string& key) const;
    /// Member access; throws JsonError when absent.
    const Json& at(const std::string& key) const;
    /// Member access returning nullptr when absent.
    const Json* find(const std::string& key) const;
    const std::vector<std::pair<std::string, Json>>& members() const;

    /// Serializes; indent < 0 gives the compact single-line form, otherwise
    /// pretty-printed with `indent` spaces per level.
    std::string dump(int indent = -1) const;

    /// Parses a complete JSON document (trailing garbage is an error).
    /// Throws JsonError with an offset-annotated message on malformed
    /// input, including containers nested deeper than 200 levels (the
    /// recursive parser refuses rather than exhausting the stack).
    /// Duplicate object keys follow set() semantics: the last value wins.
    static Json parse(const std::string& text);

    /// Like parse(), but duplicate object keys throw JsonError instead of
    /// last-wins.  Documents that feed verification (transcripts, attack
    /// proofs) are loaded through this: a duplicate key is two candidate
    /// values for one field, and silently preferring either would let an
    /// artifact show different content to different parsers.
    static Json parse_strict(const std::string& text);

    bool operator==(const Json&) const = default;

private:
    void dump_to(std::string* out, int indent, int depth) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;  // insertion-ordered
};

/// Recursively sorts object members by key (arrays keep their order).
/// Two documents that differ only in member order canonicalize to equal
/// values -- the property spec hashing and the serve stage cache key on.
Json canonicalized(const Json& j);

/// Writes one JSON document to a file (pretty-printed, trailing newline).
/// Mirrors util::CsvWriter's shape: construct with a path, check ok().
class JsonWriter {
public:
    explicit JsonWriter(std::string path) : path_(std::move(path)) {}

    /// Serializes `document` to the path; returns false on I/O failure.
    bool write(const Json& document, int indent = 2) const;

    const std::string& path() const { return path_; }

private:
    std::string path_;
};

}  // namespace mvf::report
