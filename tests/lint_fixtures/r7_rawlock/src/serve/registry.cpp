// Fixture: a serving-layer file taking a lock through a raw standard
// guard must trip R7 (annotated locking: only src/engine/sync.h may use
// the std:: guards; everything else goes through the sync:: wrappers).
#include <cstddef>
#include <map>
#include <shared_mutex>

namespace netdiag {

class registry {
public:
    std::size_t count() const {
        std::shared_lock lock(mu_);
        return entries_.size();
    }

private:
    mutable std::shared_mutex mu_;
    std::map<int, int> entries_;
};

}  // namespace netdiag
