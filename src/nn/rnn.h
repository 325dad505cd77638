#ifndef NLIDB_NN_RNN_H_
#define NLIDB_NN_RNN_H_

#include <memory>
#include <utility>
#include <vector>

#include "nn/layers.h"

namespace nlidb {
namespace nn {

/// A single LSTM cell: [h', C'] = LSTM(x, h, C).
///
/// Gate layout in the fused weight matrices is [input, forget, cell, output].
/// Forget-gate bias initialized to 1 (standard trick for gradient flow).
class LstmCell : public Module {
 public:
  LstmCell(int input_size, int hidden_size, Rng& rng);

  struct State {
    Var h;  // [batch, hidden]
    Var c;  // [batch, hidden]
  };

  /// Returns a zero initial state for a single sequence ([1, hidden]).
  State InitialState() const;
  /// Returns a zero initial state for `batch` independent sequences
  /// stepped in lockstep; row b of every subsequent state evolves exactly
  /// as sequence b would alone.
  State InitialState(int batch) const;

  /// One step: x is [batch, input]. Returns the next state.
  State Step(const Var& x, const State& state) const;

  void CollectParameters(std::vector<Var>* out) const override;

  int input_size() const { return input_size_; }
  int hidden_size() const { return hidden_size_; }

  /// Raw weight access for graph-free inference paths that re-implement
  /// `Step` on arena buffers (core/column_mention_fast.cc). Read-only.
  const Var& w_ih() const { return w_ih_; }
  const Var& w_hh() const { return w_hh_; }
  const Var& bias() const { return bias_; }

 private:
  int input_size_;
  int hidden_size_;
  Var w_ih_;  // [input, 4*hidden]
  Var w_hh_;  // [hidden, 4*hidden]
  Var bias_;  // [4*hidden]
};

/// A single GRU cell: h' = GRU(x, h). Gate layout [reset, update, new].
class GruCell : public Module {
 public:
  GruCell(int input_size, int hidden_size, Rng& rng);

  /// Returns a zero [1, hidden] initial state.
  Var InitialState() const;

  /// One step: x is [1, input], h is [1, hidden].
  Var Step(const Var& x, const Var& h) const;

  void CollectParameters(std::vector<Var>* out) const override;

  int input_size() const { return input_size_; }
  int hidden_size() const { return hidden_size_; }

  /// Raw weight access for graph-free inference paths that re-implement
  /// `Step` on arena buffers (core/seq2seq_fast.cc). Read-only: mutation
  /// goes through CollectParameters like every other optimizer client.
  const Var& w_ih() const { return w_ih_; }
  const Var& w_hh() const { return w_hh_; }
  const Var& b_ih() const { return b_ih_; }
  const Var& b_hh() const { return b_hh_; }

 private:
  int input_size_;
  int hidden_size_;
  Var w_ih_;  // [input, 3*hidden]
  Var w_hh_;  // [hidden, 3*hidden]
  Var b_ih_;  // [3*hidden]
  Var b_hh_;  // [3*hidden]
};

/// Multi-layer unidirectional LSTM over a [n, d] sequence, with the affine
/// transformation L^l before each layer that the paper uses to keep
/// dimensions consistent (Sec. IV-B part ii).
class StackedLstm : public Module {
 public:
  StackedLstm(int input_size, int hidden_size, int num_layers, Rng& rng);

  /// [n, input] -> top-layer hidden states [n, hidden].
  Var Forward(const Var& sequence) const;

  void CollectParameters(std::vector<Var>* out) const override;

  int hidden_size() const { return hidden_size_; }
  int num_layers() const { return static_cast<int>(cells_.size()); }

  /// Per-layer component access for graph-free inference (read-only);
  /// `l` must be in [0, num_layers()).
  const Linear& input_affine(int l) const { return *input_affines_[l]; }
  const LstmCell& cell(int l) const { return *cells_[l]; }

 private:
  int hidden_size_;
  std::vector<std::unique_ptr<Linear>> input_affines_;  // L^l per layer
  std::vector<std::unique_ptr<LstmCell>> cells_;
};

/// Stacked bidirectional GRU encoder (paper Sec. V-B): per layer an affine
/// input transformation, then forward and backward GRU passes whose hidden
/// states are concatenated, [n, d] -> [n, 2*hidden].
class StackedBiGru : public Module {
 public:
  StackedBiGru(int input_size, int hidden_size, int num_layers, Rng& rng);

  struct Output {
    Var states;        // [n, 2*hidden], concatenated fw/bw per position
    Var final_forward;  // [1, hidden]: forward state at last position
    Var final_backward; // [1, hidden]: backward state at first position
  };

  Output Forward(const Var& sequence) const;

  void CollectParameters(std::vector<Var>* out) const override;

  int hidden_size() const { return hidden_size_; }
  int num_layers() const { return static_cast<int>(fw_cells_.size()); }

  /// Per-layer component access for graph-free inference (read-only);
  /// `l` must be in [0, num_layers()).
  const Linear& input_affine(int l) const { return *input_affines_[l]; }
  const GruCell& forward_cell(int l) const { return *fw_cells_[l]; }
  const GruCell& backward_cell(int l) const { return *bw_cells_[l]; }

 private:
  int hidden_size_;
  std::vector<std::unique_ptr<Linear>> input_affines_;
  std::vector<std::unique_ptr<GruCell>> fw_cells_;
  std::vector<std::unique_ptr<GruCell>> bw_cells_;
};

}  // namespace nn
}  // namespace nlidb

#endif  // NLIDB_NN_RNN_H_
