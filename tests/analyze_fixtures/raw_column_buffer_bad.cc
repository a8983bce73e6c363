// Fixture: raw column-buffer access outside storage.
// Never compiled — parsed by analyze_test only.

double Sum(const soda::Column& col, const soda::Column* other) {
  const double* x = col.F64Data();                 // line 5: raw-column-buffer
  const int64_t* y = other->I64Data();             // line 6: raw-column-buffer
  double* out = other->MutableF64Data();           // line 7: raw-column-buffer
  return x[0] + y[0] + out[0] + col.Strings().size();  // line 8
}
