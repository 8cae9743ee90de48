#include "util/fileutil.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "util/logging.hh"

namespace fs = std::filesystem;

namespace gest {

std::string
readFile(const std::string& path)
{
    std::string out;
    if (!tryReadFile(path, out))
        fatal("cannot read file '", path, "'");
    return out;
}

bool
tryReadFile(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

void
writeFile(const std::string& path, const std::string& contents)
{
    const fs::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        fs::create_directories(p.parent_path(), ec);
    }
    std::ofstream outStream(path, std::ios::binary | std::ios::trunc);
    if (!outStream)
        fatal("cannot open '", path, "' for writing");
    outStream << contents;
    // A payload smaller than the stream buffer reaches the file only
    // when it is flushed: close before checking, or ENOSPC is lost.
    outStream.close();
    if (!outStream)
        fatal("short write to '", path, "'");
}

void
appendFile(const std::string& path, const std::string& contents,
           bool truncate)
{
    std::ofstream out(path, std::ios::binary |
                                (truncate ? std::ios::trunc : std::ios::app));
    if (!out)
        fatal("cannot open '", path, "' for appending");
    out << contents;
    out.close();
    if (!out)
        fatal("short write to '", path, "'");
}

void
writeFileAtomic(const std::string& path, const std::string& contents)
{
    const std::string tmp = path + ".tmp";
    writeFile(tmp, contents);
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        fatal("cannot replace '", path, "': ", ec.message());
}

void
ensureDir(const std::string& path)
{
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec && !fs::is_directory(path))
        fatal("cannot create directory '", path, "': ", ec.message());
}

bool
fileExists(const std::string& path)
{
    std::error_code ec;
    return fs::is_regular_file(path, ec);
}

bool
dirExists(const std::string& path)
{
    std::error_code ec;
    return fs::is_directory(path, ec);
}

std::vector<std::string>
listFiles(const std::string& dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file())
            out.push_back(entry.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
listDirs(const std::string& dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_directory())
            out.push_back(entry.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
removeAll(const std::string& path)
{
    std::error_code ec;
    fs::remove_all(path, ec);
}

std::string
makeTempDir(const std::string& prefix)
{
    std::random_device rd;
    for (int attempt = 0; attempt < 64; ++attempt) {
        std::ostringstream name;
        name << prefix << "-" << std::hex << rd() << rd();
        const fs::path candidate = fs::temp_directory_path() / name.str();
        std::error_code ec;
        if (fs::create_directories(candidate, ec))
            return candidate.string();
    }
    fatal("cannot create a scratch directory under ",
          fs::temp_directory_path().string());
}

} // namespace gest
