"""Row-major 3x3 matrix (rotations, inertia tensors)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Union, overload

from .vec3 import Vec3


class Mat3:
    __slots__ = ("m",)

    m: List[List[float]]

    def __init__(
            self,
            rows: Optional[Sequence[Sequence[float]]] = None) -> None:
        if rows is None:
            self.m = [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        else:
            self.m = [[float(v) for v in row] for row in rows]

    @staticmethod
    def zero() -> "Mat3":
        return Mat3([[0.0] * 3 for _ in range(3)])

    @staticmethod
    def diagonal(a: float, b: float, c: float) -> "Mat3":
        return Mat3([[a, 0.0, 0.0], [0.0, b, 0.0], [0.0, 0.0, c]])

    def __getitem__(self, idx: int) -> List[float]:
        return self.m[idx]

    def __repr__(self) -> str:
        return f"Mat3({self.m})"

    def column(self, j: int) -> Vec3:
        return Vec3(self.m[0][j], self.m[1][j], self.m[2][j])

    def transpose(self) -> "Mat3":
        m = self.m
        return Mat3([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])

    @overload
    def __mul__(self, other: Vec3) -> Vec3: ...

    @overload
    def __mul__(self, other: "Mat3") -> "Mat3": ...

    def __mul__(
            self,
            other: Union[Vec3, "Mat3"]) -> Union[Vec3, "Mat3"]:
        if isinstance(other, Vec3):
            m = self.m
            return Vec3(
                m[0][0] * other.x + m[0][1] * other.y + m[0][2] * other.z,
                m[1][0] * other.x + m[1][1] * other.y + m[1][2] * other.z,
                m[2][0] * other.x + m[2][1] * other.y + m[2][2] * other.z,
            )
        a, b = self.m, other.m
        return Mat3([
            [
                a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
                for j in range(3)
            ]
            for i in range(3)
        ])

    def determinant(self) -> float:
        m = self.m
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    def inverse(self) -> "Mat3":
        m = self.m
        det = self.determinant()
        if abs(det) < 1e-30:
            raise ZeroDivisionError("singular Mat3")
        inv = 1.0 / det
        return Mat3([
            [
                (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv,
                (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv,
                (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv,
            ],
            [
                (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv,
                (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv,
                (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv,
            ],
            [
                (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv,
                (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv,
                (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv,
            ],
        ])
