// Fixture: raw thread-safety attributes outside thread_annotations.h.
// Never compiled — parsed by analyze_test only.

class __attribute__((capability("mutex"))) Lock {};  // line 4
int counter __attribute__((guarded_by(mu)));        // line 5
void Locked() __attribute__((exclusive_locks_required(mu)));  // line 6
