#include "serve/protocol.hpp"

namespace mvf::serve {

std::string error_line(const std::string& text) {
    report::Json j = report::Json::object();
    j.set("ok", false);
    j.set("error", text);
    return j.dump();
}

std::string response_line(const report::Json& j) { return j.dump(); }

}  // namespace mvf::serve
