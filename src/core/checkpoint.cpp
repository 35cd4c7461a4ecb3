#include "core/checkpoint.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "util/hash.hpp"

namespace mcqa::core {

namespace {

// --- primitive codecs (index_io idiom) ---------------------------------------

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

std::uint64_t take_u64(std::string_view blob, std::size_t& pos) {
  if (pos + 8 > blob.size()) {
    throw std::runtime_error("checkpoint load: truncated integer");
  }
  std::uint64_t v = 0;
  std::memcpy(&v, blob.data() + pos, 8);
  pos += 8;
  return v;
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

std::int64_t take_i64(std::string_view blob, std::size_t& pos) {
  return static_cast<std::int64_t>(take_u64(blob, pos));
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

void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

std::string take_str(std::string_view blob, std::size_t& pos) {
  const std::size_t n = take_u64(blob, pos);
  if (n > blob.size() - pos) {
    throw std::runtime_error("checkpoint load: truncated string");
  }
  std::string s(blob.substr(pos, n));
  pos += n;
  return s;
}

/// Element count, bounded by the bytes actually left in the blob so a
/// corrupt header raises a load error instead of a giant reserve().
std::size_t take_count(std::string_view blob, std::size_t& pos) {
  const std::size_t n = take_u64(blob, pos);
  if (n > blob.size() - pos) {
    throw std::runtime_error("checkpoint load: implausible count");
  }
  return n;
}

void put_str_vec(std::string& out, const std::vector<std::string>& v) {
  put_u64(out, v.size());
  for (const auto& s : v) put_str(out, s);
}

std::vector<std::string> take_str_vec(std::string_view blob,
                                      std::size_t& pos) {
  const std::size_t n = take_count(blob, pos);
  std::vector<std::string> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(take_str(blob, pos));
  return v;
}

void expect_magic(std::string_view blob, std::size_t& pos,
                  std::string_view magic) {
  if (blob.substr(0, magic.size()) != magic) {
    throw std::runtime_error("checkpoint load: bad magic");
  }
  pos = magic.size();
}

// --- config fingerprints -----------------------------------------------------

std::uint64_t hash_f64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return util::hash_combine(h, util::fnv1a64(bits));
}

std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  return util::hash_combine(h, util::fnv1a64(v));
}

}  // namespace

std::uint64_t code_fingerprint() {
  static const std::uint64_t fp = [] {
    std::uint64_t h = util::fnv1a64(kCheckpointFormatVersion);
    char path[4096];
    const ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
    if (n <= 0) return h;
    path[n] = '\0';
    h = util::hash_combine(h, util::fnv1a64(std::string_view(path)));
    struct stat st{};
    if (::stat(path, &st) == 0) {
      h = hash_u64(h, static_cast<std::uint64_t>(st.st_size));
      h = hash_u64(h, static_cast<std::uint64_t>(st.st_mtim.tv_sec));
      h = hash_u64(h, static_cast<std::uint64_t>(st.st_mtim.tv_nsec));
    }
    return h;
  }();
  return fp;
}

CheckpointKeys derive_checkpoint_keys(const PipelineConfig& config,
                                      std::size_t embed_dim) {
  std::uint64_t root = util::fnv1a64(kCheckpointFormatVersion);
  root = hash_u64(root, code_fingerprint());

  // Knowledge base + corpus: every generation knob upstream of parsing.
  std::uint64_t kb = util::fnv1a64("kb");
  kb = hash_u64(kb, config.kb.facts_per_topic);
  kb = hash_u64(kb, config.kb.seed);
  kb = hash_f64(kb, config.kb.math_fraction);

  std::uint64_t corpus = util::hash_combine(util::fnv1a64("corpus"), kb);
  corpus = hash_f64(corpus, config.corpus.scale);
  corpus = hash_u64(corpus, config.corpus.seed);
  corpus = hash_f64(corpus, config.corpus.paper_gen.facts_per_paper);
  corpus = hash_f64(corpus, config.corpus.paper_gen.facts_per_abstract);
  corpus = hash_f64(corpus, config.corpus.paper_gen.filler_ratio);
  corpus = hash_f64(corpus, config.corpus.moderate_fraction);
  corpus = hash_f64(corpus, config.corpus.hard_fraction);
  corpus = hash_f64(corpus, config.corpus.markdown_fraction);
  corpus = hash_f64(corpus, config.corpus.text_fraction);
  // Corpus edits change document bytes, so they must retire every
  // aggregate downstream of parsing.  Folded only when active so that
  // default-configured builds keep their pre-edit keys.
  if (config.corpus.edits.count > 0) {
    corpus = hash_u64(corpus, config.corpus.edits.seed);
    corpus = hash_u64(corpus, config.corpus.edits.count);
    corpus = hash_u64(corpus, config.corpus.edits.revision);
  }
  corpus = util::hash_combine(root, corpus);

  // Embedder identity: the encoder family is fixed in code (covered by
  // the code fingerprint); the dimension pins the vector shape.
  std::uint64_t embed = util::fnv1a64("hashed-ngram-biomed");
  embed = hash_u64(embed, embed_dim);

  CheckpointKeys keys;
  std::uint64_t parsed = util::hash_combine(util::fnv1a64("parsed"), corpus);
  parsed = hash_f64(parsed, config.parser.route_threshold);
  parsed = hash_f64(parsed, config.parser.accept_threshold);
  keys.parsed = parsed;

  std::uint64_t chunks =
      util::hash_combine(util::fnv1a64("chunks"), keys.parsed);
  chunks = hash_u64(chunks, config.chunker.target_words);
  chunks = hash_u64(chunks, config.chunker.max_words);
  chunks = hash_u64(chunks, config.chunker.min_words);
  chunks = hash_f64(chunks, config.chunker.drift_threshold);
  chunks = hash_u64(chunks, config.chunker.overlap_words);
  chunks = hash_u64(chunks, config.semantic_chunking ? 1 : 0);
  chunks = util::hash_combine(chunks, embed);
  keys.chunks = chunks;

  std::uint64_t store =
      util::hash_combine(util::fnv1a64("chunk-store"), keys.chunks);
  store = hash_u64(store, static_cast<std::uint64_t>(config.index_kind));
  store = util::hash_combine(store, embed);
  keys.chunk_store = store;

  std::uint64_t bench =
      util::hash_combine(util::fnv1a64("benchmark"), keys.chunks);
  bench = hash_f64(bench, config.builder.quality_threshold);
  bench = hash_f64(bench, config.builder.relevance_threshold);
  bench = hash_f64(bench, config.builder.residual_ambiguity);
  bench = util::hash_combine(bench, kb);  // teacher reads the KB directly
  keys.benchmark = bench;

  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    std::uint64_t tr =
        util::hash_combine(util::fnv1a64("traces"), keys.benchmark);
    tr = hash_u64(tr, config.tracegen.seed);
    tr = hash_u64(tr, static_cast<std::uint64_t>(m));
    keys.traces[static_cast<std::size_t>(m)] = tr;

    std::uint64_t ts = util::hash_combine(util::fnv1a64("trace-store"), tr);
    ts = hash_u64(ts, static_cast<std::uint64_t>(config.index_kind));
    ts = util::hash_combine(ts, embed);
    keys.trace_stores[static_cast<std::size_t>(m)] = ts;
  }
  return keys;
}

// --- per-document artifact DAG -----------------------------------------------

std::uint64_t doc_config_fingerprint(const PipelineConfig& config,
                                     std::size_t embed_dim) {
  std::uint64_t h = util::fnv1a64("doc-config");
  h = hash_u64(h, kCheckpointFormatVersion);
  h = hash_u64(h, code_fingerprint());

  // The teacher (question generation + trace grading) reads the KB.
  h = hash_u64(h, config.kb.facts_per_topic);
  h = hash_u64(h, config.kb.seed);
  h = hash_f64(h, config.kb.math_fraction);

  h = hash_f64(h, config.parser.route_threshold);
  h = hash_f64(h, config.parser.accept_threshold);

  h = hash_u64(h, config.chunker.target_words);
  h = hash_u64(h, config.chunker.max_words);
  h = hash_u64(h, config.chunker.min_words);
  h = hash_f64(h, config.chunker.drift_threshold);
  h = hash_u64(h, config.chunker.overlap_words);
  h = hash_u64(h, config.semantic_chunking ? 1 : 0);
  h = util::hash_combine(h, util::fnv1a64("hashed-ngram-biomed"));
  h = hash_u64(h, embed_dim);

  h = hash_f64(h, config.builder.quality_threshold);
  h = hash_f64(h, config.builder.relevance_threshold);
  h = hash_f64(h, config.builder.residual_ambiguity);

  h = hash_u64(h, config.tracegen.seed);
  return h;
}

std::vector<std::uint64_t> derive_doc_keys(
    const PipelineConfig& config, const corpus::SyntheticCorpus& corpus,
    std::size_t embed_dim) {
  const std::uint64_t cfg = doc_config_fingerprint(config, embed_dim);
  std::vector<std::uint64_t> keys;
  keys.reserve(corpus.documents.size());
  for (const auto& doc : corpus.documents) {
    std::uint64_t h = util::hash_combine(util::fnv1a64("docart"), cfg);
    h = util::hash_combine(h, util::fnv1a64(doc.doc_id));
    h = hash_u64(h, util::fnv1a64(doc.bytes));
    keys.push_back(h);
  }
  return keys;
}

std::uint64_t derive_manifest_key(const PipelineConfig& config,
                                  std::size_t embed_dim) {
  std::uint64_t h = util::hash_combine(
      util::fnv1a64("manifest"), doc_config_fingerprint(config, embed_dim));
  h = hash_u64(h, static_cast<std::uint64_t>(config.index_kind));
  // The corpus *family*: generation knobs minus the edit fields, so
  // successive revisions of one corpus share the manifest slot.
  h = hash_f64(h, config.corpus.scale);
  h = hash_u64(h, config.corpus.seed);
  h = hash_f64(h, config.corpus.paper_gen.facts_per_paper);
  h = hash_f64(h, config.corpus.paper_gen.facts_per_abstract);
  h = hash_f64(h, config.corpus.paper_gen.filler_ratio);
  h = hash_f64(h, config.corpus.moderate_fraction);
  h = hash_f64(h, config.corpus.hard_fraction);
  h = hash_f64(h, config.corpus.markdown_fraction);
  h = hash_f64(h, config.corpus.text_fraction);
  return h;
}

// --- ArtifactCache -----------------------------------------------------------

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::string ArtifactCache::path_for(std::string_view name,
                                    std::uint64_t key) const {
  return dir_ + "/" + std::string(name) + "-" + util::hex_digest(key, 16) +
         ".ckpt";
}

std::optional<std::string> ArtifactCache::load(std::string_view name,
                                               std::uint64_t key) const {
  // Sized bulk read: the per-doc restore pass loads hundreds of blobs
  // per run, and a byte-at-a-time istreambuf read dominates it.
  std::ifstream in(path_for(name, key),
                   std::ios::binary | std::ios::ate);
  if (!in) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const std::streamoff size = in.tellg();
  if (size < 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::string blob(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(blob.data(), size);
  if (!in.good()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(blob.size(), std::memory_order_relaxed);
  return blob;
}

void ArtifactCache::note_corrupt() const {
  corrupt_.fetch_add(1, std::memory_order_relaxed);
  hits_.fetch_sub(1, std::memory_order_relaxed);
  misses_.fetch_add(1, std::memory_order_relaxed);
}

ArtifactCache::Stats ArtifactCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.corrupt_blobs = corrupt_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return s;
}

void ArtifactCache::store(std::string_view name, std::uint64_t key,
                          std::string_view blob) const {
  const std::string final_path = path_for(name, key);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return;  // cache is best-effort; a miss next time is safe
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(blob.size(), std::memory_order_relaxed);
}

std::string trace_mode_blob_name(std::string_view prefix,
                                 trace::TraceMode mode) {
  std::string name(prefix);
  name += '-';
  name += trace::trace_mode_name(mode);
  return name;
}

// --- parsed documents + chunks ---------------------------------------------

namespace {

void put_document(std::string& out, const parse::ParsedDocument& d) {
  put_str(out, d.doc_id);
  put_str(out, d.title);
  put_str(out, d.kind);
  put_u64(out, d.sections.size());
  for (const auto& s : d.sections) {
    put_str(out, s.heading);
    put_str(out, s.text);
  }
  put_str(out, d.parser_used);
  put_f64(out, d.quality);
  put_u64(out, d.pages);
}

void put_chunk(std::string& out, const chunk::Chunk& c) {
  put_str(out, c.chunk_id);
  put_str(out, c.doc_id);
  put_str(out, c.path);
  put_str(out, c.text);
  put_u64(out, c.index);
  put_u64(out, c.word_count);
  put_u64(out, c.sentence_count);
}

}  // namespace

std::string serialize_parsed(const ParsedArtifact& a) {
  std::string out = "ckparse1\n";
  put_u64(out, a.total_documents);
  put_u64(out, a.parse_failures);
  put_u64(out, a.routing.total);
  put_u64(out, a.routing.fast_routed);
  put_u64(out, a.routing.escalated);
  put_u64(out, a.routing.accurate_routed);
  put_u64(out, a.routing.failed);
  put_u64(out, a.routing.non_spdf);
  put_f64(out, a.routing.compute_cost);
  put_f64(out, a.routing.always_accurate_cost);
  put_u64(out, a.documents.size());
  for (const auto& d : a.documents) put_document(out, d);
  return out;
}

std::string serialize_chunks(const std::vector<chunk::Chunk>& chunks) {
  std::string out = "ckchunk1\n";
  put_u64(out, chunks.size());
  for (const auto& c : chunks) put_chunk(out, c);
  return out;
}

// --- benchmark ---------------------------------------------------------------

namespace {

void put_record(std::string& out, const qgen::McqRecord& r) {
  put_str(out, r.question);
  put_str(out, r.answer);
  put_str(out, r.text);
  put_str(out, r.type);
  put_str(out, r.chunk_id);
  put_str(out, r.cleaning_version);
  put_str(out, r.path);
  put_f64(out, r.relevance_score);
  put_str(out, r.relevance_type);
  put_str(out, r.relevance_reasoning);
  put_f64(out, r.quality_score);
  put_str(out, r.quality_critique);
  put_str(out, r.quality_raw_output);
  put_str(out, r.record_id);
  put_str(out, r.stem);
  put_str_vec(out, r.options);
  put_i64(out, r.correct_index);
  put_u64(out, r.fact);
  put_u64(out, r.math ? 1 : 0);
  put_f64(out, r.fact_importance);
  put_str(out, r.key_principle);
  put_f64(out, r.ambiguity);
  put_u64(out, r.exam_item ? 1 : 0);
  put_str(out, r.sub_domain);
}

qgen::McqRecord take_record(std::string_view blob, std::size_t& pos) {
  qgen::McqRecord r;
  r.question = take_str(blob, pos);
  r.answer = take_str(blob, pos);
  r.text = take_str(blob, pos);
  r.type = take_str(blob, pos);
  r.chunk_id = take_str(blob, pos);
  r.cleaning_version = take_str(blob, pos);
  r.path = take_str(blob, pos);
  r.relevance_score = take_f64(blob, pos);
  r.relevance_type = take_str(blob, pos);
  r.relevance_reasoning = take_str(blob, pos);
  r.quality_score = take_f64(blob, pos);
  r.quality_critique = take_str(blob, pos);
  r.quality_raw_output = take_str(blob, pos);
  r.record_id = take_str(blob, pos);
  r.stem = take_str(blob, pos);
  r.options = take_str_vec(blob, pos);
  r.correct_index = static_cast<int>(take_i64(blob, pos));
  r.fact = static_cast<corpus::FactId>(take_u64(blob, pos));
  r.math = take_u64(blob, pos) != 0;
  r.fact_importance = take_f64(blob, pos);
  r.key_principle = take_str(blob, pos);
  r.ambiguity = take_f64(blob, pos);
  r.exam_item = take_u64(blob, pos) != 0;
  r.sub_domain = take_str(blob, pos);
  return r;
}

}  // namespace

std::string serialize_benchmark(const BenchmarkArtifact& a) {
  std::string out = "ckbench1\n";
  put_u64(out, a.funnel.chunks);
  put_u64(out, a.funnel.candidates);
  put_u64(out, a.funnel.rejected_no_fact);
  put_u64(out, a.funnel.rejected_quality);
  put_u64(out, a.funnel.rejected_relevance);
  put_u64(out, a.funnel.accepted);
  put_u64(out, a.records.size());
  for (const auto& r : a.records) put_record(out, r);
  return out;
}

// --- traces ------------------------------------------------------------------

namespace {

void put_trace(std::string& out, const trace::TraceRecord& t) {
  put_str(out, t.trace_id);
  put_str(out, t.question);
  put_str(out, t.context);
  put_str_vec(out, t.options);
  put_i64(out, t.correct_answer_index);
  put_str(out, t.correct_answer);
  put_u64(out, static_cast<std::uint64_t>(t.mode));
  put_str_vec(out, t.thought_process);
  put_str(out, t.scientific_conclusion);
  put_str(out, t.key_principle);
  put_str_vec(out, t.dismissed_options);
  put_str(out, t.quick_elimination_reasoning);
  put_str_vec(out, t.viable_options);
  put_str(out, t.focused_detailed_reasoning);
  put_str(out, t.quick_analysis);
  put_str(out, t.elimination);
  put_str(out, t.prediction.predicted_answer);
  put_str(out, t.prediction.prediction_reasoning);
  put_str(out, t.prediction.confidence_level);
  put_str(out, t.prediction.confidence_explanation);
  put_u64(out, t.has_grading ? 1 : 0);
  put_u64(out, t.grading.is_correct ? 1 : 0);
  put_f64(out, t.grading.confidence);
  put_str(out, t.grading.reasoning);
  put_i64(out, t.grading.extracted_option_number);
  put_i64(out, t.grading.correct_option_number);
  put_str(out, t.source_record_id);
}

trace::TraceRecord take_trace(std::string_view blob, std::size_t& pos) {
  trace::TraceRecord t;
  t.trace_id = take_str(blob, pos);
  t.question = take_str(blob, pos);
  t.context = take_str(blob, pos);
  t.options = take_str_vec(blob, pos);
  t.correct_answer_index = static_cast<int>(take_i64(blob, pos));
  t.correct_answer = take_str(blob, pos);
  t.mode = static_cast<trace::TraceMode>(take_u64(blob, pos));
  t.thought_process = take_str_vec(blob, pos);
  t.scientific_conclusion = take_str(blob, pos);
  t.key_principle = take_str(blob, pos);
  t.dismissed_options = take_str_vec(blob, pos);
  t.quick_elimination_reasoning = take_str(blob, pos);
  t.viable_options = take_str_vec(blob, pos);
  t.focused_detailed_reasoning = take_str(blob, pos);
  t.quick_analysis = take_str(blob, pos);
  t.elimination = take_str(blob, pos);
  t.prediction.predicted_answer = take_str(blob, pos);
  t.prediction.prediction_reasoning = take_str(blob, pos);
  t.prediction.confidence_level = take_str(blob, pos);
  t.prediction.confidence_explanation = take_str(blob, pos);
  t.has_grading = take_u64(blob, pos) != 0;
  t.grading.is_correct = take_u64(blob, pos) != 0;
  t.grading.confidence = take_f64(blob, pos);
  t.grading.reasoning = take_str(blob, pos);
  t.grading.extracted_option_number = static_cast<int>(take_i64(blob, pos));
  t.grading.correct_option_number = static_cast<int>(take_i64(blob, pos));
  t.source_record_id = take_str(blob, pos);
  return t;
}

}  // namespace

std::string serialize_traces(const TraceArtifact& a) {
  std::string out = "cktrace1\n";
  put_u64(out, a.grading.graded);
  put_u64(out, a.grading.correct);
  put_u64(out, a.traces.size());
  for (const auto& t : a.traces) put_trace(out, t);
  return out;
}

// --- eval cells --------------------------------------------------------------

std::string serialize_eval_cell(const EvalCellArtifact& a) {
  std::string out = "ckcell1\n";
  put_str(out, a.model);
  put_i64(out, a.condition);
  put_u64(out, a.correct);
  put_u64(out, a.total);
  put_u64(out, a.unparseable);
  return out;
}

EvalCellArtifact deserialize_eval_cell(std::string_view blob) {
  std::size_t pos = 0;
  expect_magic(blob, pos, "ckcell1\n");
  EvalCellArtifact a;
  a.model = take_str(blob, pos);
  a.condition = take_i64(blob, pos);
  a.correct = take_u64(blob, pos);
  a.total = take_u64(blob, pos);
  a.unparseable = take_u64(blob, pos);
  return a;
}

// --- per-document artifacts --------------------------------------------------

namespace {

/// Raw fp32 bits — embeddings restore bit-exactly, never re-rounded.
void put_f32_vec(std::string& out, const embed::Vector& v) {
  put_u64(out, v.size());
  out.append(reinterpret_cast<const char*>(v.data()),
             v.size() * sizeof(float));
}

embed::Vector take_f32_vec(std::string_view blob, std::size_t& pos) {
  const std::size_t n = take_u64(blob, pos);
  if (n > (blob.size() - pos) / sizeof(float)) {
    throw std::runtime_error("checkpoint load: truncated vector");
  }
  embed::Vector v(n);
  std::memcpy(v.data(), blob.data() + pos, n * sizeof(float));
  pos += n * sizeof(float);
  return v;
}

parse::ParsedDocument take_document(std::string_view blob, std::size_t& pos) {
  parse::ParsedDocument d;
  d.doc_id = take_str(blob, pos);
  d.title = take_str(blob, pos);
  d.kind = take_str(blob, pos);
  const std::size_t sections = take_count(blob, pos);
  d.sections.reserve(sections);
  for (std::size_t s = 0; s < sections; ++s) {
    parse::ParsedSection sec;
    sec.heading = take_str(blob, pos);
    sec.text = take_str(blob, pos);
    d.sections.push_back(std::move(sec));
  }
  d.parser_used = take_str(blob, pos);
  d.quality = take_f64(blob, pos);
  d.pages = take_u64(blob, pos);
  return d;
}

chunk::Chunk take_chunk(std::string_view blob, std::size_t& pos) {
  chunk::Chunk c;
  c.chunk_id = take_str(blob, pos);
  c.doc_id = take_str(blob, pos);
  c.path = take_str(blob, pos);
  c.text = take_str(blob, pos);
  c.index = take_u64(blob, pos);
  c.word_count = take_u64(blob, pos);
  c.sentence_count = take_u64(blob, pos);
  return c;
}

}  // namespace

std::string serialize_docart(const DocArtifact& a) {
  std::string out = "ckdoc1\n";
  put_u64(out, a.parsed_ok ? 1 : 0);
  put_str(out, a.route);
  put_f64(out, a.compute_cost);
  if (a.parsed_ok) put_document(out, a.document);
  put_u64(out, a.funnel_candidates);
  put_u64(out, a.funnel_rejected_no_fact);
  put_u64(out, a.funnel_rejected_quality);
  put_u64(out, a.funnel_rejected_relevance);
  put_u64(out, a.chunks.size());
  for (const auto& c : a.chunks) {
    put_chunk(out, c.chunk);
    put_f32_vec(out, c.vector);
    put_u64(out, c.has_record ? 1 : 0);
    if (!c.has_record) continue;
    put_record(out, c.record);
    for (const auto& lane : c.traces) {
      put_u64(out, lane.kept ? 1 : 0);
      if (!lane.kept) continue;
      put_trace(out, lane.trace);
      put_str(out, lane.retrieval);
      put_f32_vec(out, lane.vector);
    }
  }
  return out;
}

DocArtifact deserialize_docart(std::string_view blob) {
  std::size_t pos = 0;
  expect_magic(blob, pos, "ckdoc1\n");
  DocArtifact a;
  a.parsed_ok = take_u64(blob, pos) != 0;
  a.route = take_str(blob, pos);
  a.compute_cost = take_f64(blob, pos);
  if (a.parsed_ok) a.document = take_document(blob, pos);
  a.funnel_candidates = take_u64(blob, pos);
  a.funnel_rejected_no_fact = take_u64(blob, pos);
  a.funnel_rejected_quality = take_u64(blob, pos);
  a.funnel_rejected_relevance = take_u64(blob, pos);
  const std::size_t n = take_count(blob, pos);
  a.chunks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    DocChunkArtifact c;
    c.chunk = take_chunk(blob, pos);
    c.vector = take_f32_vec(blob, pos);
    c.has_record = take_u64(blob, pos) != 0;
    if (c.has_record) {
      c.record = take_record(blob, pos);
      for (auto& lane : c.traces) {
        lane.kept = take_u64(blob, pos) != 0;
        if (!lane.kept) continue;
        lane.trace = take_trace(blob, pos);
        lane.retrieval = take_str(blob, pos);
        lane.vector = take_f32_vec(blob, pos);
      }
    }
    a.chunks.push_back(std::move(c));
  }
  return a;
}

// --- manifest ----------------------------------------------------------------

std::string serialize_manifest(const ManifestArtifact& a) {
  std::string out = "ckmani1\n";
  put_u64(out, a.keys.parsed);
  put_u64(out, a.keys.chunks);
  put_u64(out, a.keys.chunk_store);
  put_u64(out, a.keys.benchmark);
  for (const std::uint64_t k : a.keys.traces) put_u64(out, k);
  for (const std::uint64_t k : a.keys.trace_stores) put_u64(out, k);
  put_u64(out, a.doc_ids.size());
  for (std::size_t i = 0; i < a.doc_ids.size(); ++i) {
    put_str(out, a.doc_ids[i]);
    put_u64(out, a.doc_keys[i]);
  }
  return out;
}

ManifestArtifact deserialize_manifest(std::string_view blob) {
  std::size_t pos = 0;
  expect_magic(blob, pos, "ckmani1\n");
  ManifestArtifact a;
  a.keys.parsed = take_u64(blob, pos);
  a.keys.chunks = take_u64(blob, pos);
  a.keys.chunk_store = take_u64(blob, pos);
  a.keys.benchmark = take_u64(blob, pos);
  for (auto& k : a.keys.traces) k = take_u64(blob, pos);
  for (auto& k : a.keys.trace_stores) k = take_u64(blob, pos);
  const std::size_t n = take_count(blob, pos);
  a.doc_ids.reserve(n);
  a.doc_keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.doc_ids.push_back(take_str(blob, pos));
    a.doc_keys.push_back(take_u64(blob, pos));
  }
  return a;
}

// --- cache maintenance -------------------------------------------------------

namespace {

constexpr std::string_view kCkptSuffix = ".ckpt";

bool is_hex16(std::string_view s) {
  if (s.size() != 16) return false;
  for (const char c : s) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return true;
}

/// "docart-0123456789abcdef.ckpt" -> "docart"; non-conforming names
/// group under "other".
std::string blob_prefix_of(std::string_view filename) {
  if (filename.size() <= kCkptSuffix.size() ||
      filename.substr(filename.size() - kCkptSuffix.size()) != kCkptSuffix) {
    return "other";
  }
  const std::string_view stem =
      filename.substr(0, filename.size() - kCkptSuffix.size());
  const std::size_t dash = stem.rfind('-');
  if (dash == std::string_view::npos || !is_hex16(stem.substr(dash + 1))) {
    return "other";
  }
  return std::string(stem.substr(0, dash));
}

/// Sorted `.ckpt`-suffixed filenames in `dir` (deterministic sweep
/// order regardless of directory enumeration order).
std::vector<std::string> sorted_ckpt_files(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return names;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() > kCkptSuffix.size() &&
        name.compare(name.size() - kCkptSuffix.size(), kCkptSuffix.size(),
                     kCkptSuffix) == 0) {
      names.push_back(std::move(name));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Blob names the incremental builder owns; everything else in the
/// cache (eval cells, trained weights) has an independent lifecycle.
bool is_build_prefix(std::string_view prefix) {
  if (prefix == "manifest" || prefix == "docart" ||
      prefix == "chunk-store" || prefix == "parsed" || prefix == "chunks" ||
      prefix == "benchmark") {
    return true;
  }
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mode = static_cast<trace::TraceMode>(m);
    if (prefix == trace_mode_blob_name("traces", mode) ||
        prefix == trace_mode_blob_name("trace-store", mode)) {
      return true;
    }
  }
  return false;
}

bool is_eval_prefix(std::string_view prefix) {
  return prefix == "eval-cell" || prefix == "eval-group";
}

}  // namespace

CacheInventory inventory_cache(const std::string& dir) {
  CacheInventory inv;
  std::vector<CacheInventoryRow> rows;
  for (const std::string& name : sorted_ckpt_files(dir)) {
    const std::string prefix = blob_prefix_of(name);
    std::error_code ec;
    const std::uintmax_t bytes =
        std::filesystem::file_size(std::filesystem::path(dir) / name, ec);
    const std::uintmax_t sz = ec ? 0 : bytes;
    auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
      return r.prefix == prefix;
    });
    if (it == rows.end()) {
      rows.push_back(CacheInventoryRow{prefix, 1, sz});
    } else {
      ++it->files;
      it->bytes += sz;
    }
    ++inv.total_files;
    inv.total_bytes += sz;
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.prefix < b.prefix; });
  inv.rows = std::move(rows);
  return inv;
}

PruneReport prune_cache(const std::string& dir,
                        const ManifestArtifact& manifest,
                        std::uint64_t manifest_key, bool prune_eval_cells) {
  const ArtifactCache cache(dir);
  std::vector<std::string> reachable;
  auto mark = [&](std::string_view name, std::uint64_t key) {
    reachable.push_back(std::filesystem::path(cache.path_for(name, key))
                            .filename()
                            .string());
  };
  mark("manifest", manifest_key);
  for (const std::uint64_t k : manifest.doc_keys) mark("docart", k);
  mark("chunk-store", manifest.keys.chunk_store);
  for (int m = 0; m < trace::kTraceModeCount; ++m) {
    const auto mode = static_cast<trace::TraceMode>(m);
    mark(trace_mode_blob_name("trace-store", mode),
         manifest.keys.trace_stores[static_cast<std::size_t>(m)]);
  }
  std::sort(reachable.begin(), reachable.end());

  PruneReport report;
  for (const std::string& name : sorted_ckpt_files(dir)) {
    ++report.scanned;
    const bool is_reachable =
        std::binary_search(reachable.begin(), reachable.end(), name);
    const std::string prefix = blob_prefix_of(name);
    const bool sweepable =
        !is_reachable && (is_build_prefix(prefix) ||
                          (prune_eval_cells && is_eval_prefix(prefix)));
    if (!sweepable) {
      ++report.kept;
      continue;
    }
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    std::error_code rm_ec;
    if (std::filesystem::remove(path, rm_ec) && !rm_ec) {
      ++report.removed;
      report.removed_bytes += ec ? 0 : bytes;
    } else {
      ++report.kept;
    }
  }
  return report;
}

}  // namespace mcqa::core
