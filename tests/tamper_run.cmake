# Writes OUT: a copy of the metrics file IN whose first run reports another
# result with the same sim_seconds: digest zeroed, keys +1, iterations +3,
# table_bytes +8, heap_bytes +8, pcie.h2d_bytes +1,
# serialization.total_lock_ops +1, and an error kind it did not have:
#   cmake -DIN=full.json -DOUT=tampered.json -P tamper_run.cmake
# Used by the fig6_metrics_diff_tampered* tests: metrics-diff must note
# every one of these fields as drifted.
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(READ "${IN}" doc)
string(JSON run GET "${doc}" runs 0)
string(JSON run SET "${run}" checksum_hex [=["0000000000000000"]=])
foreach(pair "keys;1" "iterations;3" "table_bytes;8" "heap_bytes;8"
        "pcie;h2d_bytes;1" "serialization;total_lock_ops;1")
  list(POP_BACK pair add)
  string(JSON value GET "${run}" ${pair})
  math(EXPR value "${value} + ${add}")
  string(JSON run SET "${run}" ${pair} ${value})
endforeach()
string(JSON run SET "${run}" error [=[{
  "kind": "fault_retries_exhausted",
  "message": "tampered"}]=])
string(JSON doc SET "${doc}" runs 0 "${run}")
file(WRITE "${OUT}" "${doc}")
