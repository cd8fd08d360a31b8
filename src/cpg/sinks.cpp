#include "cpg/sinks.hpp"

namespace tabby::cpg {

namespace {
std::string key_of(std::string_view owner, std::string_view name) {
  return std::string(owner) + "#" + std::string(name);
}
}  // namespace

const SinkRegistry& SinkRegistry::table() {
  static const SinkRegistry registry = [] {
    SinkRegistry r;
    // --- Table VII rows ---------------------------------------------------
    r.add({"java.nio.file.Files", "newOutputStream", "FILE", {1}});
    r.add({"java.io.File", "delete", "FILE", {0}});
    r.add({"java.lang.reflect.Method", "invoke", "CODE", {0, 1}});
    r.add({"java.net.ClassLoader", "loadClass", "CODE", {0, 1}});
    r.add({"javax.naming.Context", "lookup", "JNDI", {1}});
    r.add({"java.rmi.registry.Registry", "lookup", "JNDI", {1}});
    r.add({"java.lang.Runtime", "exec", "EXEC", {1}});
    r.add({"java.lang.ProcessImpl", "start", "EXEC", {1}});
    r.add({"javax.xml.parsers.DocumentBuilder", "parse", "XXE", {1}});
    r.add({"javax.xml.transform.Transformer", "transform", "XXE", {1}});
    r.add({"java.net.InetAddress", "getByName", "SSRF", {1}});
    r.add({"java.net.URL", "openConnection", "SSRF", {0}});
    r.add({"java.lang.Object", "readObject", "JDV", {0}});
    // --- Remainder of the 38 (website list reconstructed by category) ------
    r.add({"java.lang.ProcessBuilder", "start", "EXEC", {0}});
    r.add({"java.lang.ClassLoader", "loadClass", "CODE", {0, 1}});
    r.add({"java.lang.ClassLoader", "defineClass", "CODE", {1}});
    r.add({"java.lang.Class", "forName", "CODE", {1}});
    r.add({"java.lang.reflect.Constructor", "newInstance", "CODE", {0}});
    r.add({"javax.script.ScriptEngine", "eval", "CODE", {1}});
    r.add({"javax.el.ELProcessor", "eval", "CODE", {1}});
    r.add({"ognl.Ognl", "getValue", "CODE", {1}});
    r.add({"groovy.lang.GroovyShell", "evaluate", "CODE", {1}});
    r.add({"bsh.Interpreter", "eval", "CODE", {1}});
    r.add({"org.mozilla.javascript.Context", "evaluateString", "CODE", {2}});
    r.add({"java.beans.Expression", "getValue", "CODE", {0}});
    r.add({"javax.naming.InitialContext", "doLookup", "JNDI", {1}});
    r.add({"javax.management.remote.JMXConnectorFactory", "connect", "JNDI", {1}});
    r.add({"java.rmi.Naming", "lookup", "JNDI", {1}});
    r.add({"java.io.FileOutputStream", "write", "FILE", {0}});
    r.add({"java.io.FileWriter", "write", "FILE", {0}});
    r.add({"java.nio.file.Files", "delete", "FILE", {1}});
    r.add({"java.nio.file.Files", "write", "FILE", {1}});
    r.add({"javax.xml.parsers.SAXParser", "parse", "XXE", {1}});
    r.add({"java.net.Socket", "connect", "SSRF", {1}});
    r.add({"java.net.URLConnection", "connect", "SSRF", {0}});
    r.add({"java.io.ObjectInputStream", "readObject", "JDV", {0}});
    r.add({"javax.sql.DataSource", "getConnection", "SQL", {0}});
    r.add({"java.sql.DriverManager", "getConnection", "SQL", {1}});
    return r;
  }();
  return registry;
}

void SinkRegistry::add(SinkSpec spec) {
  by_key_[key_of(spec.owner, spec.name)] = sinks_.size();
  sinks_.push_back(std::move(spec));
}

const SinkSpec* SinkRegistry::match(std::string_view owner, std::string_view name) const {
  auto it = by_key_.find(key_of(owner, name));
  if (it == by_key_.end()) return nullptr;
  return &sinks_[it->second];
}

const SourceRegistry& SourceRegistry::table() {
  static const SourceRegistry registry = [] {
    SourceRegistry r;
    r.names_ = {"readObject",     "readExternal",     "readResolve",
                "validateObject", "readObjectNoData", "finalize"};
    return r;
  }();
  return registry;
}

bool SourceRegistry::is_source_name(std::string_view method_name) const {
  for (const std::string& n : names_) {
    if (n == method_name) return true;
  }
  return false;
}

}  // namespace tabby::cpg
