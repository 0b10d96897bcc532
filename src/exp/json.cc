#include "exp/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ich
{
namespace exp
{

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
JsonWriter::number(double v)
{
    if (!std::isfinite(v))
        return "null";
    // to_chars(general, 10) is printf's "%.10g" in the C locale.
    char buf[40];
    auto r = std::to_chars(buf, buf + sizeof buf, v,
                           std::chars_format::general, 10);
    if (r.ec != std::errc())
        throw std::logic_error("JsonWriter::number: to_chars overflowed");
    return std::string(buf, r.ptr);
}

void
JsonWriter::indent()
{
    os_ << "\n";
    for (std::size_t i = 0; i < hasItem_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::beforeValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // key() already positioned us
    }
    if (!hasItem_.empty()) {
        if (hasItem_.back())
            os_ << ",";
        indent();
        hasItem_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    os_ << "{";
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    bool had = hasItem_.back();
    hasItem_.pop_back();
    if (had)
        indent();
    os_ << "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    os_ << "[";
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    bool had = hasItem_.back();
    hasItem_.pop_back();
    if (had)
        indent();
    os_ << "]";
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    if (hasItem_.back())
        os_ << ",";
    indent();
    hasItem_.back() = true;
    os_ << "\"" << escape(k) << "\": ";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    beforeValue();
    os_ << "\"" << escape(v) << "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    os_ << number(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beforeValue();
    os_ << "null";
    return *this;
}

std::string
JsonWriter::str() const
{
    return os_.str() + "\n";
}

} // namespace exp
} // namespace ich
