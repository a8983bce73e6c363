// Fixture: raw std::thread outside the thread pool.
// Never compiled — parsed by analyze_test only.

namespace std {
class thread;
}

std::thread worker;                           // line 8: raw-thread
void Spawn(std::vector<std::thread>* pool);  // line 9: raw-thread
