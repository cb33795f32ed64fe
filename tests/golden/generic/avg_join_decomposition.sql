SELECT age, mean_dur
FROM (
  SELECT __p2, __p3, age, (__p2 / __p3) AS mean_dur
  FROM (
    SELECT sum(__p0) AS __p2, sum(__p1) AS __p3, age
    FROM (
      SELECT __p0, __p1, age, uid
      FROM users
      INNER JOIN (
        SELECT sum(dur) AS __p0, count(dur) AS __p1, uid
        FROM events
        GROUP BY uid
      ) AS t0 USING (uid)
    ) AS t1
    GROUP BY age
  ) AS t2
) AS t3
