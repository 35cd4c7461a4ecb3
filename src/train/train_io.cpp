#include "train/train_io.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>

#include "util/hash.hpp"

namespace mcqa::train {

namespace {

constexpr std::string_view kMagic = "lbltrained1\n";

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

std::uint64_t take_u64(std::string_view blob, std::size_t& pos) {
  if (pos + 8 > blob.size()) {
    throw std::runtime_error("trained-lm load: truncated integer");
  }
  std::uint64_t v = 0;
  std::memcpy(&v, blob.data() + pos, 8);
  pos += 8;
  return v;
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

double take_f64(std::string_view blob, std::size_t& pos) {
  const std::uint64_t bits = take_u64(blob, pos);
  double v = 0.0;
  std::memcpy(&v, &bits, 8);
  return v;
}

void put_blob(std::string& out, std::string_view blob) {
  put_u64(out, blob.size());
  out.append(blob);
}

std::string_view take_blob(std::string_view blob, std::size_t& pos) {
  const std::uint64_t n = take_u64(blob, pos);
  if (n > blob.size() - pos) {
    throw std::runtime_error("trained-lm load: truncated section");
  }
  const std::string_view section = blob.substr(pos, n);
  pos += n;
  return section;
}

}  // namespace

std::string serialize_trained(const TrainedLm& lm) {
  std::string out(kMagic);
  put_blob(out, lm.bpe != nullptr ? lm.bpe->save() : std::string());
  put_blob(out, lm.model.save());
  put_u64(out, lm.report.train_tokens);
  put_u64(out, lm.report.held_out_tokens);
  put_u64(out, lm.report.epochs);
  put_u64(out, lm.report.minibatches);
  put_f64(out, lm.report.final_epoch_loss);
  put_f64(out, lm.report.held_out_perplexity);
  return out;
}

TrainedLm deserialize_trained(std::string_view blob) {
  if (blob.substr(0, kMagic.size()) != kMagic) {
    throw std::runtime_error("trained-lm load: unknown magic");
  }
  std::size_t pos = kMagic.size();
  TrainedLm lm;
  lm.bpe = std::make_shared<const text::BpeTokenizer>(
      text::BpeTokenizer::load(take_blob(blob, pos)));
  lm.model = LblModel::load(take_blob(blob, pos));
  lm.report.train_tokens = take_u64(blob, pos);
  lm.report.held_out_tokens = take_u64(blob, pos);
  lm.report.epochs = take_u64(blob, pos);
  lm.report.minibatches = take_u64(blob, pos);
  lm.report.final_epoch_loss = take_f64(blob, pos);
  lm.report.held_out_perplexity = take_f64(blob, pos);
  return lm;
}

std::uint64_t trained_checkpoint_key(std::uint64_t code_fingerprint,
                                     const TrainConfig& config,
                                     std::string_view training_text) {
  std::uint64_t h = util::fnv1a64("trained-lbl");
  h = util::hash_combine(h, util::fnv1a64(kTrainFormatVersion));
  h = util::hash_combine(h, util::fnv1a64(code_fingerprint));
  h = util::hash_combine(h, fingerprint(config));
  h = util::hash_combine(h, util::fnv1a64(training_text));
  return h;
}

std::uint64_t trained_model_fingerprint(const TrainConfig& config,
                                        std::string_view training_text) {
  std::uint64_t h = util::fnv1a64("trained-lbl-cell");
  h = util::hash_combine(h, util::fnv1a64(kTrainFormatVersion));
  h = util::hash_combine(h, fingerprint(config));
  h = util::hash_combine(h, util::fnv1a64(training_text));
  return h;
}

}  // namespace mcqa::train
