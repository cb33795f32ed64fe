SELECT r, sid
FROM (
  SELECT r, sid
  FROM sensors
  CROSS JOIN UNNEST(readings) AS u0 (r)
) AS t1
