# Writes OUT: a metrics file holding IN's first run and a copy of that run
# that did no simulated work (sim_seconds, serialization_s and the timeline
# zeroed). With -DERROR=1 the copy carries an error object, as a run refused
# before any simulated work does, and the file must pass metrics-check;
# without it the copy is a clean run that reads 0, and must not:
#   cmake -DIN=full.json -DOUT=zero.json [-DERROR=1] -P zero_sim_run.cmake
# Used by the metrics_check_errored_zero_sim and metrics_check_clean_zero_sim
# tests.
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(READ "${IN}" doc)
string(JSON run GET "${doc}" runs 0)
set(zero "${run}")
string(JSON zero SET "${zero}" sim_seconds 0)
string(JSON zero SET "${zero}" serialization_s 0)
foreach(f compute_busy h2d_busy d2h_busy remote_busy total commands)
  string(JSON zero SET "${zero}" timeline ${f} 0)
endforeach()
if(ERROR)
  string(JSON zero SET "${zero}" error [=[{
    "kind": "device_out_of_memory",
    "message": "MapCG: input does not fit in device memory"}]=])
endif()
string(JSON doc SET "${doc}" runs "[${run}, ${zero}]")
file(WRITE "${OUT}" "${doc}")
