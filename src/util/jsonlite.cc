#include "util/jsonlite.hh"

#include <cmath>
#include <cstdlib>

namespace gest {
namespace json {

namespace {

/** Recursive-descent reader over a string_view with one-slot errors. */
class Reader
{
  public:
    Reader(std::string_view text, std::string* error)
        : _text(text), _error(error)
    {}

    bool
    run(Value& out)
    {
        skipSpace();
        if (!value(out, 0))
            return false;
        skipSpace();
        if (_pos != _text.size())
            return fail("trailing characters after the JSON value");
        return true;
    }

  private:
    bool
    fail(const std::string& what)
    {
        if (_error && _error->empty())
            *_error = what + " at byte " + std::to_string(_pos);
        return false;
    }

    void
    skipSpace()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\t' ||
                _text[_pos] == '\n' || _text[_pos] == '\r'))
            ++_pos;
    }

    bool
    literal(std::string_view word)
    {
        if (_text.substr(_pos, word.size()) != word)
            return false;
        _pos += word.size();
        return true;
    }

    bool
    value(Value& out, int depth)
    {
        if (depth > 64)
            return fail("nesting deeper than 64 levels");
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        switch (_text[_pos]) {
          case '{': return object(out, depth);
          case '[': return array(out, depth);
          case '"':
            out.type = Value::Type::String;
            return string(out.str);
          case 't':
            out.type = Value::Type::Bool;
            out.boolean = true;
            return literal("true") || fail("bad literal");
          case 'f':
            out.type = Value::Type::Bool;
            out.boolean = false;
            return literal("false") || fail("bad literal");
          case 'n':
            out.type = Value::Type::Null;
            return literal("null") || fail("bad literal");
          default:
            return number(out);
        }
    }

    bool
    number(Value& out)
    {
        // Scan RFC 8259's grammar within the view first: strtod would
        // read past its end and accept hex, inf and nan.
        const std::size_t begin = _pos;
        auto digits = [this] {
            const std::size_t from = _pos;
            while (_pos < _text.size() && _text[_pos] >= '0' &&
                   _text[_pos] <= '9')
                ++_pos;
            return _pos > from;
        };
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        if (_pos < _text.size() && _text[_pos] == '0')
            ++_pos;
        else if (!digits())
            return fail("expected a JSON value");
        if (_pos < _text.size() && _text[_pos] == '.') {
            ++_pos;
            if (!digits())
                return fail("expected a digit after '.'");
        }
        if (_pos < _text.size() &&
            (_text[_pos] == 'e' || _text[_pos] == 'E')) {
            ++_pos;
            if (_pos < _text.size() &&
                (_text[_pos] == '+' || _text[_pos] == '-'))
                ++_pos;
            if (!digits())
                return fail("expected a digit in the exponent");
        }
        const std::string token(_text.substr(begin, _pos - begin));
        out.number = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(out.number)) {
            _pos = begin;
            return fail("number out of range");
        }
        out.type = Value::Type::Number;
        return true;
    }

    bool
    string(std::string& out)
    {
        ++_pos;  // opening quote
        out.clear();
        while (_pos < _text.size()) {
            const char c = _text[_pos];
            if (c == '"') {
                ++_pos;
                return true;
            }
            if (c != '\\') {
                out += c;
                ++_pos;
                continue;
            }
            if (_pos + 1 >= _text.size())
                return fail("unterminated escape");
            const char esc = _text[_pos + 1];
            _pos += 2;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                  if (_pos + 4 > _text.size())
                      return fail("truncated \\u escape");
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = _text[_pos + static_cast<
                          std::size_t>(i)];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          return fail("bad \\u escape digit");
                  }
                  _pos += 4;
                  // UTF-8 encode the code point; the framework only
                  // emits \u for control characters, but be correct
                  // for the whole BMP (surrogate pairs unsupported).
                  if (code < 0x80) {
                      out += static_cast<char>(code);
                  } else if (code < 0x800) {
                      out += static_cast<char>(0xC0 | (code >> 6));
                      out += static_cast<char>(0x80 | (code & 0x3F));
                  } else {
                      out += static_cast<char>(0xE0 | (code >> 12));
                      out += static_cast<char>(0x80 |
                                               ((code >> 6) & 0x3F));
                      out += static_cast<char>(0x80 | (code & 0x3F));
                  }
                  break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    array(Value& out, int depth)
    {
        ++_pos;  // '['
        out.type = Value::Type::Array;
        skipSpace();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        for (;;) {
            Value element;
            skipSpace();
            if (!value(element, depth + 1))
                return false;
            out.array.push_back(std::move(element));
            skipSpace();
            if (_pos >= _text.size())
                return fail("unterminated array");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_text[_pos] == ']') {
                ++_pos;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    object(Value& out, int depth)
    {
        ++_pos;  // '{'
        out.type = Value::Type::Object;
        skipSpace();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        for (;;) {
            skipSpace();
            if (_pos >= _text.size() || _text[_pos] != '"')
                return fail("expected a quoted object key");
            std::string key;
            if (!string(key))
                return false;
            skipSpace();
            if (_pos >= _text.size() || _text[_pos] != ':')
                return fail("expected ':' after object key");
            ++_pos;
            skipSpace();
            Value member;
            if (!value(member, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(member));
            skipSpace();
            if (_pos >= _text.size())
                return fail("unterminated object");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_text[_pos] == '}') {
                ++_pos;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    std::string_view _text;
    std::string* _error;
    std::size_t _pos = 0;
};

} // namespace

const Value*
Value::find(const std::string& key) const
{
    for (const auto& [name, member] : members) {
        if (name == key)
            return &member;
    }
    return nullptr;
}

double
Value::numberOr(const std::string& key, double fallback) const
{
    const Value* member = find(key);
    return member && member->isNumber() ? member->number : fallback;
}

std::string
Value::stringOr(const std::string& key,
                const std::string& fallback) const
{
    const Value* member = find(key);
    return member && member->isString() ? member->str : fallback;
}

bool
parse(std::string_view text, Value& out, std::string* error)
{
    if (error)
        error->clear();
    out = Value{};
    Reader reader(text, error);
    return reader.run(out);
}

} // namespace json
} // namespace gest
