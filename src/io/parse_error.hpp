#pragma once
// Structured parse failure for the benchmark-circuit readers.
//
// The importers (io/import.hpp) never return nullopt on malformed input:
// they throw a ParseError carrying the file name and 1-based line number,
// formatted "file:line: message" so CLI surfaces (mvf run/attack/batch,
// the serve scheduler) can print it verbatim and editors can jump to it.

#include <stdexcept>
#include <string>

namespace mvf::io {

class ParseError : public std::runtime_error {
public:
    ParseError(std::string file, int line, const std::string& message)
        : std::runtime_error(format(file, line, message)),
          file_(std::move(file)),
          line_(line) {}

    /// File the error was raised for ("<stream>" when parsing from memory).
    const std::string& file() const { return file_; }
    /// 1-based line number; 0 when the error is not tied to one line
    /// (e.g. an undriven net detected after the whole file was read).
    int line() const { return line_; }

private:
    static std::string format(const std::string& file, int line,
                              const std::string& message) {
        std::string out = file.empty() ? std::string("<stream>") : file;
        if (line > 0) out += ':' + std::to_string(line);
        out += ": ";
        out += message;
        return out;
    }

    std::string file_;
    int line_;
};

}  // namespace mvf::io
