#include "jar/archive.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/bytes.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"

namespace tabby::jar {

namespace {

using util::Error;
using util::Result;

// Statement opcodes. Order is part of the on-disk format; append only.
enum Op : std::uint8_t {
  kAssign = 0,
  kConst = 1,
  kNew = 2,
  kFieldStore = 3,
  kFieldLoad = 4,
  kStaticStore = 5,
  kStaticLoad = 6,
  kArrayStore = 7,
  kArrayLoad = 8,
  kCast = 9,
  kReturn = 10,
  kInvoke = 11,
  kIf = 12,
  kGoto = 13,
  kLabel = 14,
  kThrow = 15,
  kNop = 16,
};

// Modifier bit flags.
constexpr std::uint8_t kFlagPublic = 1;
constexpr std::uint8_t kFlagStatic = 2;
constexpr std::uint8_t kFlagAbstract = 4;
constexpr std::uint8_t kFlagFinal = 8;
constexpr std::uint8_t kFlagNative = 16;
constexpr std::uint8_t kFlagInterface = 32;

std::uint8_t pack_mods(const jir::Modifiers& mods, bool is_interface = false) {
  std::uint8_t flags = 0;
  if (mods.is_public) flags |= kFlagPublic;
  if (mods.is_static) flags |= kFlagStatic;
  if (mods.is_abstract) flags |= kFlagAbstract;
  if (mods.is_final) flags |= kFlagFinal;
  if (mods.is_native) flags |= kFlagNative;
  if (is_interface) flags |= kFlagInterface;
  return flags;
}

jir::Modifiers unpack_mods(std::uint8_t flags) {
  jir::Modifiers mods;
  mods.is_public = (flags & kFlagPublic) != 0;
  mods.is_static = (flags & kFlagStatic) != 0;
  mods.is_abstract = (flags & kFlagAbstract) != 0;
  mods.is_final = (flags & kFlagFinal) != 0;
  mods.is_native = (flags & kFlagNative) != 0;
  return mods;
}

/// Two-pass writer: first intern every string, then emit records.
class Writer {
 public:
  explicit Writer(const Archive& archive) : archive_(archive) {}

  std::vector<std::byte> write() {
    for (const jir::ClassDecl& cls : archive_.classes) intern_class(cls);

    out_.u32(kTjarMagic);
    out_.u16(kTjarVersion);
    out_.bytes(archive_.meta.name);
    out_.bytes(archive_.meta.version);
    out_.uvarint(pool_.size());
    for (const std::string& s : pool_) out_.bytes(s);
    out_.uvarint(archive_.classes.size());
    for (const jir::ClassDecl& cls : archive_.classes) write_class(cls);
    return out_.take();
  }

 private:
  std::uint64_t intern(const std::string& s) {
    auto [it, inserted] = index_.emplace(s, pool_.size());
    if (inserted) pool_.push_back(s);
    return it->second;
  }

  void intern_type(const jir::Type& t) { intern(t.name); }

  void intern_class(const jir::ClassDecl& cls) {
    intern(cls.name);
    intern(cls.super);
    for (const auto& i : cls.interfaces) intern(i);
    for (const auto& f : cls.fields) {
      intern(f.name);
      intern_type(f.type);
    }
    for (const auto& m : cls.methods) {
      intern(m.name);
      intern_type(m.ret);
      for (const auto& p : m.params) intern_type(p);
      for (const auto& s : m.body) intern_stmt(s);
    }
  }

  void intern_stmt(const jir::Stmt& stmt) {
    std::visit([this](const auto& s) { intern_stmt_impl(s); }, stmt);
  }
  void intern_stmt_impl(const jir::AssignStmt& s) {
    intern(s.target);
    intern(s.source);
  }
  void intern_stmt_impl(const jir::ConstStmt& s) {
    intern(s.target);
    if (const auto* str = std::get_if<std::string>(&s.value.value)) intern(*str);
  }
  void intern_stmt_impl(const jir::NewStmt& s) {
    intern(s.target);
    intern_type(s.type);
  }
  void intern_stmt_impl(const jir::FieldStoreStmt& s) {
    intern(s.base);
    intern(s.field);
    intern(s.source);
  }
  void intern_stmt_impl(const jir::FieldLoadStmt& s) {
    intern(s.target);
    intern(s.base);
    intern(s.field);
  }
  void intern_stmt_impl(const jir::StaticStoreStmt& s) {
    intern(s.owner);
    intern(s.field);
    intern(s.source);
  }
  void intern_stmt_impl(const jir::StaticLoadStmt& s) {
    intern(s.target);
    intern(s.owner);
    intern(s.field);
  }
  void intern_stmt_impl(const jir::ArrayStoreStmt& s) {
    intern(s.base);
    intern(s.index);
    intern(s.source);
  }
  void intern_stmt_impl(const jir::ArrayLoadStmt& s) {
    intern(s.target);
    intern(s.base);
    intern(s.index);
  }
  void intern_stmt_impl(const jir::CastStmt& s) {
    intern(s.target);
    intern_type(s.type);
    intern(s.source);
  }
  void intern_stmt_impl(const jir::ReturnStmt& s) { intern(s.value); }
  void intern_stmt_impl(const jir::InvokeStmt& s) {
    intern(s.target);
    intern(s.callee.owner);
    intern(s.callee.name);
    intern(s.base);
    for (const auto& a : s.args) intern(a);
  }
  void intern_stmt_impl(const jir::IfStmt& s) {
    intern(s.lhs);
    intern(s.rhs);
    intern(s.target_label);
  }
  void intern_stmt_impl(const jir::GotoStmt& s) { intern(s.target_label); }
  void intern_stmt_impl(const jir::LabelStmt& s) { intern(s.name); }
  void intern_stmt_impl(const jir::ThrowStmt& s) { intern(s.value); }
  void intern_stmt_impl(const jir::NopStmt&) {}

  void str(const std::string& s) { out_.uvarint(index_.at(s)); }
  void type(const jir::Type& t) {
    str(t.name);
    out_.u8(static_cast<std::uint8_t>(t.dims));
  }

  void write_class(const jir::ClassDecl& cls) {
    str(cls.name);
    out_.u8(pack_mods(cls.mods, cls.is_interface));
    str(cls.super);
    out_.uvarint(cls.interfaces.size());
    for (const auto& i : cls.interfaces) str(i);
    out_.uvarint(cls.fields.size());
    for (const auto& f : cls.fields) {
      str(f.name);
      type(f.type);
      out_.u8(pack_mods(f.mods));
    }
    out_.uvarint(cls.methods.size());
    for (const auto& m : cls.methods) write_method(m);
  }

  void write_method(const jir::Method& m) {
    str(m.name);
    out_.u8(pack_mods(m.mods));
    type(m.ret);
    out_.uvarint(m.params.size());
    for (const auto& p : m.params) type(p);
    out_.uvarint(m.body.size());
    for (const auto& s : m.body) write_stmt(s);
  }

  void write_stmt(const jir::Stmt& stmt) {
    std::visit([this](const auto& s) { write_stmt_impl(s); }, stmt);
  }
  void write_stmt_impl(const jir::AssignStmt& s) {
    out_.u8(kAssign);
    str(s.target);
    str(s.source);
  }
  void write_stmt_impl(const jir::ConstStmt& s) {
    out_.u8(kConst);
    str(s.target);
    if (s.value.is_null()) {
      out_.u8(0);
    } else if (const auto* i = std::get_if<std::int64_t>(&s.value.value)) {
      out_.u8(1);
      out_.svarint(*i);
    } else {
      out_.u8(2);
      str(std::get<std::string>(s.value.value));
    }
  }
  void write_stmt_impl(const jir::NewStmt& s) {
    out_.u8(kNew);
    str(s.target);
    type(s.type);
  }
  void write_stmt_impl(const jir::FieldStoreStmt& s) {
    out_.u8(kFieldStore);
    str(s.base);
    str(s.field);
    str(s.source);
  }
  void write_stmt_impl(const jir::FieldLoadStmt& s) {
    out_.u8(kFieldLoad);
    str(s.target);
    str(s.base);
    str(s.field);
  }
  void write_stmt_impl(const jir::StaticStoreStmt& s) {
    out_.u8(kStaticStore);
    str(s.owner);
    str(s.field);
    str(s.source);
  }
  void write_stmt_impl(const jir::StaticLoadStmt& s) {
    out_.u8(kStaticLoad);
    str(s.target);
    str(s.owner);
    str(s.field);
  }
  void write_stmt_impl(const jir::ArrayStoreStmt& s) {
    out_.u8(kArrayStore);
    str(s.base);
    str(s.index);
    str(s.source);
  }
  void write_stmt_impl(const jir::ArrayLoadStmt& s) {
    out_.u8(kArrayLoad);
    str(s.target);
    str(s.base);
    str(s.index);
  }
  void write_stmt_impl(const jir::CastStmt& s) {
    out_.u8(kCast);
    str(s.target);
    type(s.type);
    str(s.source);
  }
  void write_stmt_impl(const jir::ReturnStmt& s) {
    out_.u8(kReturn);
    str(s.value);
  }
  void write_stmt_impl(const jir::InvokeStmt& s) {
    out_.u8(kInvoke);
    str(s.target);
    out_.u8(static_cast<std::uint8_t>(s.kind));
    str(s.callee.owner);
    str(s.callee.name);
    str(s.base);
    out_.uvarint(s.args.size());
    for (const auto& a : s.args) str(a);
  }
  void write_stmt_impl(const jir::IfStmt& s) {
    out_.u8(kIf);
    str(s.lhs);
    out_.u8(static_cast<std::uint8_t>(s.op));
    str(s.rhs);
    str(s.target_label);
  }
  void write_stmt_impl(const jir::GotoStmt& s) {
    out_.u8(kGoto);
    str(s.target_label);
  }
  void write_stmt_impl(const jir::LabelStmt& s) {
    out_.u8(kLabel);
    str(s.name);
  }
  void write_stmt_impl(const jir::ThrowStmt& s) {
    out_.u8(kThrow);
    str(s.value);
  }
  void write_stmt_impl(const jir::NopStmt&) { out_.u8(kNop); }

  const Archive& archive_;
  util::ByteWriter out_;
  std::vector<std::string> pool_;
  std::unordered_map<std::string, std::uint64_t> index_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : in_(data), size_(data.size()) {}

  Result<Archive> read() {
    Archive archive;
    auto envelope = read_envelope(archive);
    if (!envelope.ok()) return envelope.error();

    auto class_count = in_.count("class");
    if (!class_count.ok()) return class_count.error();
    reserve(archive.classes, class_count.value(), kMinClassBytes);
    for (std::size_t i = 0; i < class_count.value(); ++i) {
      auto cls = read_class();
      if (!cls.ok()) return cls.error();
      archive.classes.push_back(std::move(cls.value()));
    }
    if (!in_.at_end()) return Error{"trailing bytes after archive body", in_.position()};
    return archive;
  }

  /// Fail-soft variant: any fault before the class records (header, string
  /// pool) loses the archive; a fault inside class record i keeps classes
  /// [0, i) and drops the rest — class records index the shared pool, so
  /// there is no boundary to resynchronise at once the stream is off.
  Archive read_salvage(DecodeDegradation& degradation) {
    Archive archive;
    auto fail = [&](const util::Error& error, std::size_t classes_declared) {
      degradation.error = error;
      degradation.classes_kept = archive.classes.size();
      degradation.classes_dropped = classes_declared - archive.classes.size();
      degradation.bytes_skipped = size_ - std::min(size_, in_.position());
      return archive;
    };

    if (auto envelope = read_envelope(archive); !envelope.ok()) {
      archive.classes.clear();
      return fail(envelope.error(), 0);
    }
    auto class_count = in_.count("class");
    if (!class_count.ok()) return fail(class_count.error(), 0);
    reserve(archive.classes, class_count.value(), kMinClassBytes);
    for (std::size_t i = 0; i < class_count.value(); ++i) {
      auto cls = read_class();
      if (!cls.ok()) return fail(cls.error(), class_count.value());
      archive.classes.push_back(std::move(cls.value()));
    }
    if (!in_.at_end()) return fail({"trailing bytes after archive body", in_.position()},
                                   class_count.value());
    degradation.classes_kept = archive.classes.size();
    return archive;
  }

 private:
  /// Header through string pool — everything before the class records.
  util::Status read_envelope(Archive& archive) {
    auto magic = in_.u32();
    if (!magic.ok()) return magic.error();
    if (magic.value() != kTjarMagic) return Error{"bad TJAR magic", 0};
    auto version = in_.u16();
    if (!version.ok()) return version.error();
    if (version.value() != kTjarVersion) {
      return Error{"unsupported TJAR version " + std::to_string(version.value()), 4};
    }

    auto name = in_.bytes();
    if (!name.ok()) return name.error();
    archive.meta.name = std::move(name.value());
    auto verstr = in_.bytes();
    if (!verstr.ok()) return verstr.error();
    archive.meta.version = std::move(verstr.value());

    auto pool_count = in_.count("string pool");
    if (!pool_count.ok()) return pool_count.error();
    pool_.reserve(pool_count.value());
    for (std::size_t i = 0; i < pool_count.value(); ++i) {
      auto s = in_.bytes();
      if (!s.ok()) return s.error();
      pool_.push_back(std::move(s.value()));
    }
    return util::Status::ok_status();
  }

 private:
  // The fewest bytes each record can be encoded in (a string is one varint
  // pool index, a type an index and a dims byte, a statement one opcode).
  static constexpr std::size_t kMinClassBytes = 6;   // name, flags, super, 3 counts
  static constexpr std::size_t kMinFieldBytes = 4;   // name, type, flags
  static constexpr std::size_t kMinMethodBytes = 6;  // name, flags, type, 2 counts
  static constexpr std::size_t kMinTypeBytes = 2;
  static constexpr std::size_t kMinStmtBytes = 1;
  static constexpr std::size_t kMinStringBytes = 1;

  /// Sizes `items` for `count` records at once, so a decoded list holds no
  /// growth slack. The reservation is capped at what the unread bytes can
  /// encode: a lying count reserves no more than an honest archive of the
  /// same length would fill.
  template <typename T>
  void reserve(std::vector<T>& items, std::size_t count, std::size_t min_bytes) {
    items.reserve(std::min(count, in_.remaining() / min_bytes));
  }

  Result<std::string> str() {
    auto idx = in_.uvarint();
    if (!idx.ok()) return idx.error();
    if (idx.value() >= pool_.size()) return Error{"string pool index out of range", in_.position()};
    return pool_[idx.value()];
  }

  Result<jir::Type> type() {
    auto name = str();
    if (!name.ok()) return name.error();
    auto dims = in_.u8();
    if (!dims.ok()) return dims.error();
    return jir::Type{std::move(name.value()), dims.value()};
  }

  Result<jir::ClassDecl> read_class() {
    jir::ClassDecl cls;
    auto name = str();
    if (!name.ok()) return name.error();
    cls.name = std::move(name.value());
    auto flags = in_.u8();
    if (!flags.ok()) return flags.error();
    cls.mods = unpack_mods(flags.value());
    cls.is_interface = (flags.value() & kFlagInterface) != 0;
    auto super = str();
    if (!super.ok()) return super.error();
    cls.super = std::move(super.value());

    auto iface_count = in_.count("interface");
    if (!iface_count.ok()) return iface_count.error();
    reserve(cls.interfaces, iface_count.value(), kMinStringBytes);
    for (std::size_t i = 0; i < iface_count.value(); ++i) {
      auto iface = str();
      if (!iface.ok()) return iface.error();
      cls.interfaces.push_back(std::move(iface.value()));
    }

    auto field_count = in_.count("field");
    if (!field_count.ok()) return field_count.error();
    reserve(cls.fields, field_count.value(), kMinFieldBytes);
    for (std::size_t i = 0; i < field_count.value(); ++i) {
      jir::Field f;
      auto fname = str();
      if (!fname.ok()) return fname.error();
      f.name = std::move(fname.value());
      auto ftype = type();
      if (!ftype.ok()) return ftype.error();
      f.type = std::move(ftype.value());
      auto fflags = in_.u8();
      if (!fflags.ok()) return fflags.error();
      f.mods = unpack_mods(fflags.value());
      cls.fields.push_back(std::move(f));
    }

    auto method_count = in_.count("method");
    if (!method_count.ok()) return method_count.error();
    reserve(cls.methods, method_count.value(), kMinMethodBytes);
    for (std::size_t i = 0; i < method_count.value(); ++i) {
      auto m = read_method();
      if (!m.ok()) return m.error();
      cls.methods.push_back(std::move(m.value()));
    }
    return cls;
  }

  Result<jir::Method> read_method() {
    jir::Method m;
    auto name = str();
    if (!name.ok()) return name.error();
    m.name = std::move(name.value());
    auto flags = in_.u8();
    if (!flags.ok()) return flags.error();
    m.mods = unpack_mods(flags.value());
    auto ret = type();
    if (!ret.ok()) return ret.error();
    m.ret = std::move(ret.value());

    auto param_count = in_.count("parameter");
    if (!param_count.ok()) return param_count.error();
    reserve(m.params, param_count.value(), kMinTypeBytes);
    for (std::size_t i = 0; i < param_count.value(); ++i) {
      auto p = type();
      if (!p.ok()) return p.error();
      m.params.push_back(std::move(p.value()));
    }

    auto stmt_count = in_.count("statement");
    if (!stmt_count.ok()) return stmt_count.error();
    reserve(m.body, stmt_count.value(), kMinStmtBytes);
    for (std::size_t i = 0; i < stmt_count.value(); ++i) {
      auto s = read_stmt();
      if (!s.ok()) return s.error();
      m.body.push_back(std::move(s.value()));
    }
    return m;
  }

  Result<jir::Stmt> read_stmt() {
    auto op = in_.u8();
    if (!op.ok()) return op.error();
    switch (op.value()) {
      case kAssign: {
        auto t = str(), s = str();
        if (!t.ok()) return t.error();
        if (!s.ok()) return s.error();
        return jir::Stmt{jir::AssignStmt{std::move(t.value()), std::move(s.value())}};
      }
      case kConst: {
        auto t = str();
        if (!t.ok()) return t.error();
        auto tag = in_.u8();
        if (!tag.ok()) return tag.error();
        switch (tag.value()) {
          case 0:
            return jir::Stmt{jir::ConstStmt{std::move(t.value()), jir::Const::null()}};
          case 1: {
            auto v = in_.svarint();
            if (!v.ok()) return v.error();
            return jir::Stmt{jir::ConstStmt{std::move(t.value()), jir::Const::of(v.value())}};
          }
          case 2: {
            auto v = str();
            if (!v.ok()) return v.error();
            return jir::Stmt{
                jir::ConstStmt{std::move(t.value()), jir::Const::of(std::move(v.value()))}};
          }
          default:
            return Error{"bad const tag", in_.position()};
        }
      }
      case kNew: {
        auto t = str();
        if (!t.ok()) return t.error();
        auto ty = type();
        if (!ty.ok()) return ty.error();
        return jir::Stmt{jir::NewStmt{std::move(t.value()), std::move(ty.value())}};
      }
      case kFieldStore: {
        auto b = str(), f = str(), s = str();
        if (!b.ok()) return b.error();
        if (!f.ok()) return f.error();
        if (!s.ok()) return s.error();
        return jir::Stmt{jir::FieldStoreStmt{std::move(b.value()), std::move(f.value()),
                                             std::move(s.value())}};
      }
      case kFieldLoad: {
        auto t = str(), b = str(), f = str();
        if (!t.ok()) return t.error();
        if (!b.ok()) return b.error();
        if (!f.ok()) return f.error();
        return jir::Stmt{jir::FieldLoadStmt{std::move(t.value()), std::move(b.value()),
                                            std::move(f.value())}};
      }
      case kStaticStore: {
        auto o = str(), f = str(), s = str();
        if (!o.ok()) return o.error();
        if (!f.ok()) return f.error();
        if (!s.ok()) return s.error();
        return jir::Stmt{jir::StaticStoreStmt{std::move(o.value()), std::move(f.value()),
                                              std::move(s.value())}};
      }
      case kStaticLoad: {
        auto t = str(), o = str(), f = str();
        if (!t.ok()) return t.error();
        if (!o.ok()) return o.error();
        if (!f.ok()) return f.error();
        return jir::Stmt{jir::StaticLoadStmt{std::move(t.value()), std::move(o.value()),
                                             std::move(f.value())}};
      }
      case kArrayStore: {
        auto b = str(), i = str(), s = str();
        if (!b.ok()) return b.error();
        if (!i.ok()) return i.error();
        if (!s.ok()) return s.error();
        return jir::Stmt{jir::ArrayStoreStmt{std::move(b.value()), std::move(i.value()),
                                             std::move(s.value())}};
      }
      case kArrayLoad: {
        auto t = str(), b = str(), i = str();
        if (!t.ok()) return t.error();
        if (!b.ok()) return b.error();
        if (!i.ok()) return i.error();
        return jir::Stmt{jir::ArrayLoadStmt{std::move(t.value()), std::move(b.value()),
                                            std::move(i.value())}};
      }
      case kCast: {
        auto t = str();
        if (!t.ok()) return t.error();
        auto ty = type();
        if (!ty.ok()) return ty.error();
        auto s = str();
        if (!s.ok()) return s.error();
        return jir::Stmt{jir::CastStmt{std::move(t.value()), std::move(ty.value()),
                                       std::move(s.value())}};
      }
      case kReturn: {
        auto v = str();
        if (!v.ok()) return v.error();
        return jir::Stmt{jir::ReturnStmt{std::move(v.value())}};
      }
      case kInvoke: {
        jir::InvokeStmt inv;
        auto t = str();
        if (!t.ok()) return t.error();
        inv.target = std::move(t.value());
        auto kind = in_.u8();
        if (!kind.ok()) return kind.error();
        if (kind.value() > 3) return Error{"bad invoke kind", in_.position()};
        inv.kind = static_cast<jir::InvokeKind>(kind.value());
        auto owner = str(), name = str(), base = str();
        if (!owner.ok()) return owner.error();
        if (!name.ok()) return name.error();
        if (!base.ok()) return base.error();
        inv.callee.owner = std::move(owner.value());
        inv.callee.name = std::move(name.value());
        inv.base = std::move(base.value());
        auto argc = in_.count("invoke argument");
        if (!argc.ok()) return argc.error();
        reserve(inv.args, argc.value(), kMinStringBytes);
        for (std::size_t i = 0; i < argc.value(); ++i) {
          auto a = str();
          if (!a.ok()) return a.error();
          inv.args.push_back(std::move(a.value()));
        }
        inv.callee.nargs = static_cast<int>(inv.args.size());
        return jir::Stmt{std::move(inv)};
      }
      case kIf: {
        jir::IfStmt s;
        auto lhs = str();
        if (!lhs.ok()) return lhs.error();
        s.lhs = std::move(lhs.value());
        auto cmp = in_.u8();
        if (!cmp.ok()) return cmp.error();
        if (cmp.value() > 5) return Error{"bad comparison op", in_.position()};
        s.op = static_cast<jir::CmpOp>(cmp.value());
        auto rhs = str(), label = str();
        if (!rhs.ok()) return rhs.error();
        if (!label.ok()) return label.error();
        s.rhs = std::move(rhs.value());
        s.target_label = std::move(label.value());
        return jir::Stmt{std::move(s)};
      }
      case kGoto: {
        auto label = str();
        if (!label.ok()) return label.error();
        return jir::Stmt{jir::GotoStmt{std::move(label.value())}};
      }
      case kLabel: {
        auto label = str();
        if (!label.ok()) return label.error();
        return jir::Stmt{jir::LabelStmt{std::move(label.value())}};
      }
      case kThrow: {
        auto v = str();
        if (!v.ok()) return v.error();
        return jir::Stmt{jir::ThrowStmt{std::move(v.value())}};
      }
      case kNop:
        return jir::Stmt{jir::NopStmt{}};
      default:
        return Error{"unknown opcode " + std::to_string(op.value()), in_.position()};
    }
  }

  util::ByteReader in_;
  std::size_t size_ = 0;
  std::vector<std::string> pool_;
};

}  // namespace

std::vector<std::byte> write_archive(const Archive& archive) { return Writer(archive).write(); }

util::Result<Archive> read_archive(std::span<const std::byte> data) {
  if (util::failpoint::poll("jar.decode")) {
    return util::Error{"failpoint: injected archive decode failure", 0};
  }
  return Reader(data).read();
}

Archive read_archive_salvage(std::span<const std::byte> data, DecodeDegradation& degradation) {
  degradation = DecodeDegradation{};
  if (util::failpoint::poll("jar.decode")) {
    degradation.error = util::Error{"failpoint: injected archive decode failure", 0};
    degradation.bytes_skipped = data.size();
    return Archive{};
  }
  return Reader(data).read_salvage(degradation);
}

util::Status write_archive_file(const Archive& archive, const std::filesystem::path& path) {
  std::vector<std::byte> bytes = write_archive(archive);
  std::ofstream out(path, std::ios::binary);
  if (!out) return Error{"cannot open for write: " + path.string()};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) return Error{"write failed: " + path.string()};
  return util::Status::ok_status();
}

util::Result<Archive> read_archive_file(const std::filesystem::path& path) {
  auto bytes = util::read_file(path);
  if (!bytes.ok()) return bytes.error();
  return read_archive(bytes.value());
}

jir::Program link(std::vector<Archive> classpath, std::size_t* duplicates_skipped) {
  obs::Span span("jar.link");
  span.attr("archives", static_cast<std::uint64_t>(classpath.size()));
  jir::Program program;
  std::size_t declared = 0;
  for (const Archive& archive : classpath) declared += archive.classes.size();
  program.reserve(declared);
  std::size_t skipped = 0;
  for (Archive& archive : classpath) {
    for (jir::ClassDecl& cls : archive.classes) {
      if (program.find_class(cls.name) != nullptr) {
        ++skipped;  // classpath order: first definition wins
        continue;
      }
      program.add_class(std::move(cls));
    }
  }
  if (duplicates_skipped != nullptr) *duplicates_skipped = skipped;
  obs::counter_add("jar.classes_linked", program.class_count());
  return program;
}

}  // namespace tabby::jar
