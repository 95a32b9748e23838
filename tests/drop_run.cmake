# Copies the metrics file IN to OUT with its first run removed:
#   cmake -DIN=full.json -DOUT=dropped.json -P drop_run.cmake
# Used by the fig6_metrics_diff_missing_run test.
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(READ "${IN}" doc)
string(JSON doc REMOVE "${doc}" runs 0)
file(WRITE "${OUT}" "${doc}")
