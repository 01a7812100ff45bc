#include "common/fsio.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/log.hh"

namespace gds
{

namespace
{

/** fsync an already-resolved path; directories are opened read-only. */
bool
fsyncPath(const std::string &path, const char *what)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        log::warnf("fs", {}, "cannot open %s '%s' for fsync: %s", what,
                   path.c_str(), std::strerror(errno));
        return false;
    }
    const bool ok = ::fsync(fd) == 0;
    if (!ok) {
        log::warnf("fs", {}, "fsync of %s '%s' failed: %s", what, path.c_str(),
                   std::strerror(errno));
    }
    ::close(fd);
    return ok;
}

} // namespace

bool
fsyncFile(const std::string &path)
{
    return fsyncPath(path, "file");
}

bool
fsyncParentDir(const std::string &path)
{
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    return fsyncPath(parent.string(), "directory");
}

bool
durableRename(const std::string &from, const std::string &to)
{
    if (!fsyncFile(from))
        return false;
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    if (ec) {
        log::warnf("fs", {}, "cannot rename '%s' to '%s': %s", from.c_str(),
                   to.c_str(), ec.message().c_str());
        return false;
    }
    return fsyncParentDir(to);
}

} // namespace gds
