#include "core/config.h"

namespace nlidb {
namespace core {

ModelConfig ModelConfig::Tiny() {
  ModelConfig c;
  c.word_dim = 24;
  c.char_dim = 8;
  c.char_per_width = 4;
  c.char_widths = {3, 4};
  c.classifier_hidden = 24;
  c.classifier_mlp_hidden = 24;
  c.classifier_epochs = 2;
  c.value_mlp_hidden = 24;
  c.value_epochs = 2;
  c.seq2seq_hidden = 32;
  c.seq2seq_epochs = 4;
  c.beam_width = 3;
  return c;
}

ModelConfig ModelConfig::Paper() {
  ModelConfig c;
  c.word_dim = 300;
  c.char_dim = 32;
  c.char_per_width = 32;
  c.char_widths = {3, 4, 5, 6, 7};
  c.classifier_hidden = 200;
  c.classifier_layers = 2;
  c.classifier_mlp_hidden = 200;
  c.classifier_epochs = 10;
  c.value_mlp_hidden = 200;
  c.value_epochs = 10;
  c.seq2seq_hidden = 400;  // decoder hidden = 2 * 400 as in the paper
  c.seq2seq_epochs = 20;
  c.beam_width = 5;
  c.grad_clip = 5.0f;
  return c;
}

}  // namespace core
}  // namespace nlidb
