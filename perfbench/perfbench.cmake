# The benchmark's build file. run.py configures the repository root with
# -DCMAKE_PROJECT_INCLUDE=<this file>; once the root CMakeLists.txt has
# defined every library, the helper below joins the same build, so it
# compiles with the repository's own flags and targets while the
# repository's build files stay untouched.
include_guard(GLOBAL)

function(perfbench_add_targets dir)
  add_executable(perfbench_layers ${dir}/layers.cpp)
  target_link_libraries(perfbench_layers PRIVATE tabby_pipeline tabby_corpus tabby_cpg
                        tabby_finder tabby_cypher tabby_cache tabby_graph tabby_runtime tabby_serve
                        tabby_analysis tabby_jar tabby_jir)
  target_include_directories(perfbench_layers PRIVATE ${CMAKE_SOURCE_DIR}/src)
endfunction()

cmake_language(EVAL CODE "
  cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]]
                 CALL perfbench_add_targets [[${CMAKE_CURRENT_LIST_DIR}]])")
