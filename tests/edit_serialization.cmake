# Copies the metrics file IN to OUT with its first run's serialization_s set
# to one second, so that run's sim_seconds no longer equals
# timeline.total + serialization_s:
#   cmake -DIN=full.json -DOUT=edited.json -P edit_serialization.cmake
# Used by the fig6_metrics_check_rejects_edit test.
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(READ "${IN}" doc)
string(JSON doc SET "${doc}" runs 0 serialization_s 1)
file(WRITE "${OUT}" "${doc}")
