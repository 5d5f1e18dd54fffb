// batch-api fixture: PredictRow inside loop bodies. Batch inference must
// ride ml::ForestKernel; the scalar walk is reserved for validation code.

struct Model {
  double PredictRow(const double* row) const;
};

double SumLoop(const Model& model, const double* rows, int n) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += model.PredictRow(rows + i);  // finding: call in a for body
  }
  int j = 0;
  while (j < n) {
    total += model.PredictRow(rows + j);  // finding: while bodies too
    ++j;
  }
  // finding: single-statement loop bodies are tracked without braces
  for (int k = 0; k < n; ++k) total += model.PredictRow(rows + k);
  return total;
}

double SingleCall(const Model& model, const double* row) {
  // Clean: one call outside any loop is the sanctioned scalar path.
  return model.PredictRow(row);
}

const char* Docs() {
  // Clean: PredictRow in a string literal (or this comment) must not fire
  // even inside a loop.
  for (int i = 0; i < 1; ++i) {
    return "batch through PredictInto, not PredictRow(row) in a loop";
  }
  return "";
}

double Suppressed(const Model& model, const double* rows, int n) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    // bbv-lint: allow(batch-api) fixture shows a justified scalar loop
    total += model.PredictRow(rows + i);
  }
  return total;
}

struct Predictor {
  double EstimateScoreFromStatistics(const double* row) const;
  void EstimateScoresFromStatistics(const double* rows, double* out,
                                    int n) const;
};

double ScalarEstimateLoop(const Predictor& predictor, const double* rows,
                          int n) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    // finding: scalar estimate surface inside a loop
    total += predictor.EstimateScoreFromStatistics(rows + i);
  }
  return total;
}

void BatchEstimate(const Predictor& predictor, const double* rows,
                   double* out, int n) {
  // Clean even inside a loop: the plural span surface IS the batch path.
  for (int rep = 0; rep < 2; ++rep) {
    predictor.EstimateScoresFromStatistics(rows, out, n);
  }
}

double ScalarEstimateOnce(const Predictor& predictor, const double* row) {
  // Clean: one estimate outside any loop is the sanctioned scalar path.
  return predictor.EstimateScoreFromStatistics(row);
}
