// Fixture: raw std synchronization types outside util/mutex.h.
// Never compiled — parsed by analyze_test only.

namespace std {
class mutex;
}

std::mutex mu;                            // line 8: raw-sync
void Wait(std::condition_variable& cv,    // line 9: raw-sync
          std::unique_lock<std::mutex>& lock);  // line 10: raw-sync (x2)
