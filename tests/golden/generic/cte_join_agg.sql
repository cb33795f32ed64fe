WITH t0 AS (
  SELECT age, uid
  FROM users
  WHERE age > 80
),
t1 AS (
  SELECT sum(dur) AS __p0, uid
  FROM events
  GROUP BY uid
),
t2 AS (
  SELECT __p0, age, uid
  FROM t0
  INNER JOIN t1 USING (uid)
)
SELECT sum(__p0) AS total_dur, uid
FROM t2
GROUP BY uid
